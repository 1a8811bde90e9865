"""The slab-vectorized DP backend is bit-identical to the scalar scan.

Identity is exact — ``==`` on values, schedules, argmin splits and state
counts, no tolerances — because the planner, conformance corpus and
snapshot codec all rely on the backends being interchangeable byte for
byte.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.dp import (
    _DPCore,
    TypeSystem,
    estimated_states,
    solve_dp,
)
from repro.core.dp_vector import (
    AUTO_VECTOR_MIN_STATES,
    DP_BACKENDS,
    _VectorCore,
    core_cls_for,
    resolve_backend,
    solve_dp_backend,
    solve_dp_vector,
)
from repro.exceptions import SolverError
from repro.experiments.dp_scaling import TYPE_SETS, _split
from repro.workloads.clusters import limited_type_cluster
from repro.workloads.generator import multicast_from_cluster


#: The experiment's type sets, plus a four-type network so the slab
#: engine's N-d slicing is checked past three axes.
TYPES = {**TYPE_SETS, 4: [(1, 1), (2, 3), (3, 5), (5, 8)]}


def _instance(k: int, n: int, latency: float = 1):
    nodes = limited_type_cluster(TYPES[k], _split(n + 1, k))
    return multicast_from_cluster(nodes, latency=latency, source="slowest")


def assert_cores_identical(scalar: _DPCore, vector: _VectorCore) -> None:
    """Full table equality: tau values and (ell, ysplit) choices."""
    assert scalar._max == vector._max
    assert scalar._strides == vector._strides
    k = scalar.types.k
    size = scalar._size
    for s in range(k):
        assert list(vector._tau[s]) == list(scalar._tau[s])
        for code in range(size):
            choice = scalar._choice[s][code]
            ell = vector._ell[s][code]
            ysp = vector._ysplit[s][code]
            if choice is None:
                assert (ell, ysp) == (-1, 0), (s, code)
            else:
                assert (ell, ysp) == choice, (s, code)


# ----------------------------------------------------------------------
# solve-level parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "k,n,latency",
    [(1, 1, 1), (1, 7, 2), (1, 24, 1), (2, 2, 1), (2, 9, 3), (2, 17, 1),
     (3, 3, 1), (3, 8, 2), (3, 14, 1), (4, 4, 1), (4, 9, 2), (4, 13, 1)],
)
def test_solve_parity(k, n, latency):
    mset = _instance(k, n, latency)
    scalar = solve_dp(mset)
    vector = solve_dp_vector(mset)
    assert vector.value == scalar.value
    assert vector.schedule == scalar.schedule
    assert vector.schedule.reception_times == scalar.schedule.reception_times
    assert vector.states_computed == scalar.states_computed


def test_choice_table_identity():
    for k, counts in [(2, (6, 5)), (3, (4, 3, 3))]:
        mset = _instance(k, sum(counts))
        types = TypeSystem.of(mset)
        box = tuple(counts)
        scalar = _DPCore(types, mset.latency)
        scalar.ensure(box)
        vector = _VectorCore(types, mset.latency)
        vector.ensure(box)
        assert_cores_identical(scalar, vector)


def test_incremental_grow_identity():
    """Two-step growth matches a fresh scalar build of the final box."""
    for k, first, second in [
        (2, (4, 3), (7, 6)),
        (3, (2, 2, 2), (4, 3, 5)),
    ]:
        mset = _instance(k, sum(second))
        types = TypeSystem.of(mset)
        vector = _VectorCore(types, mset.latency)
        vector.ensure(first)
        grown = vector.extended_to(second)
        fresh = _DPCore(types, mset.latency)
        fresh.ensure(second)
        assert_cores_identical(fresh, grown)
        # the original core is untouched (readers stay consistent)
        assert vector._max == first


# ----------------------------------------------------------------------
# backend resolution and the spec surface
# ----------------------------------------------------------------------
def test_backend_names_are_stable():
    assert DP_BACKENDS == ("auto", "scalar", "vector")


def test_resolve_backend_auto_rules():
    big = AUTO_VECTOR_MIN_STATES * 10
    assert resolve_backend("scalar", k=2, states=big) == "scalar"
    assert resolve_backend("vector", k=1, states=1) == "vector"
    # homogeneous instances always take the scalar closed form
    assert resolve_backend("auto", k=1, states=big) == "scalar"
    # small boxes stay scalar: the slab setup cost dominates
    assert resolve_backend("auto", k=2, states=AUTO_VECTOR_MIN_STATES - 1) == "scalar"
    assert resolve_backend("auto", k=2, states=big) == "vector"


def test_resolve_backend_auto_threshold_is_inclusive():
    at = AUTO_VECTOR_MIN_STATES
    assert resolve_backend("auto", k=2, states=at) == "vector"
    assert resolve_backend("auto", k=3, states=at) == "vector"
    assert resolve_backend("auto", k=3, states=at - 1) == "scalar"


def test_unknown_backend_raises():
    mset = _instance(2, 4)
    with pytest.raises(SolverError, match="unknown dp backend"):
        resolve_backend("bogus")
    with pytest.raises(SolverError, match="unknown dp backend"):
        solve_dp_backend(mset, backend="bogus")
    with pytest.raises(SolverError, match="unknown dp backend"):
        core_cls_for("bogus")


def test_solve_dp_backend_dispatch():
    mset = _instance(2, 8)
    for backend in DP_BACKENDS:
        solution = solve_dp_backend(mset, backend=backend)
        scalar = solve_dp(mset)
        assert solution.value == scalar.value
        assert solution.schedule == scalar.schedule
        assert solution.states_computed == scalar.states_computed


def test_core_cls_for_matches_resolution():
    assert core_cls_for("scalar", k=2, states=10**6) is _DPCore
    assert core_cls_for("vector", k=2, states=1) is _VectorCore
    assert core_cls_for("auto", k=2, states=10**6) is _VectorCore
    assert core_cls_for("auto", k=1, states=10**6) is _DPCore


def test_max_states_guard_applies_to_vector():
    mset = _instance(2, 20)
    with pytest.raises(SolverError, match="max_states"):
        solve_dp_vector(mset, max_states=10)


# ----------------------------------------------------------------------
# the full quick-corpus identity sweep (mirrors test_reference_identity)
# ----------------------------------------------------------------------
MAX_IDENTITY_STATES = 200_000


def test_vector_bit_identical_on_quick_corpus():
    from repro.api.solvers import capable_solvers
    from repro.conformance import generate_corpus

    checked = 0
    for spec in generate_corpus("quick"):
        mset = spec.build()
        if "dp" not in capable_solvers(mset):
            continue
        if estimated_states(mset) > MAX_IDENTITY_STATES:
            continue  # pragma: no cover - quick corpus stays tiny
        scalar = solve_dp(mset)
        vector = solve_dp_vector(mset)
        assert vector.value == scalar.value, spec.key
        assert vector.schedule == scalar.schedule, spec.key
        assert (
            vector.schedule.reception_times == scalar.schedule.reception_times
        ), spec.key
        assert vector.states_computed == scalar.states_computed, spec.key
        checked += 1
    # the corpus must actually exercise the DP, not skip everything
    assert checked > 100


# ----------------------------------------------------------------------
# numpy stays off the startup path
# ----------------------------------------------------------------------
NUMPY_PROBE = textwrap.dedent(
    """
    import sys

    import repro.cli
    from repro.api import Planner, PlanRequest
    from repro.core.multicast import MulticastSet
    from repro.service.server import PlanningService

    def two_type(fast, slow):
        return MulticastSet.from_overheads(
            source=(2, 3),
            destinations=[(1, 1)] * fast + [(2, 3)] * slow,
            latency=1,
        )

    with PlanningService(worker_mode="thread") as service:
        service.submit_sync(PlanRequest(instance=two_type(3, 3), solver="dp"))
    print("numpy" in sys.modules)
    Planner(cache_size=0).plan(two_type(40, 40), "dp")  # 3362 states: slabs
    print("numpy" in sys.modules)
    """
)


def test_numpy_loads_only_with_the_slab_engine():
    """A service answers small dp plans without importing numpy.

    ``repro serve`` imports the planner, and through it this module,
    before it answers its first ping: a top-level numpy import here would
    add numpy's whole import time to every service start.  The first
    slab-engine build is what loads it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    probe = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["False", "True"]
