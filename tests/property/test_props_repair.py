"""Property-based churn tests: repair is bit-identical to cold re-planning.

The headline property of the online layer: for every solver that declares
``reusable_table``, opening a session and streaming a random membership
delta chain yields, at every step, a plan byte-equal — values, schedules,
bounds, provenance — to cold-planning that step's membership from
scratch.  The chain strategy (:func:`tests.strategies.delta_chains`)
shrinks to minimal failing chains over minimal instances.

The nightly churn-fuzz CI step sets ``REPRO_CHURN_FUZZ_S`` to widen the
example budget; local and tier-1 runs use the quick default.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.planner import Planner
from repro.api.request import PlanRequest
from repro.api.solvers import available_solvers, resolve
from repro.api.tables import TableCacheConfig
from repro.conformance.invariants import canonical_result_payload
from repro.core.repair import apply_delta, apply_deltas, churn_chain, repair_mode
from repro.exceptions import ModelError
from repro.service.sessions import SessionManager

from tests.strategies import delta_chains, membership_deltas

# the nightly churn-fuzz job exports REPRO_CHURN_FUZZ_S to buy a wider
# example budget; everything stays deterministic under the ci profile
_FUZZ = int(os.environ.get("REPRO_CHURN_FUZZ_S", "0"))
MAX_EXAMPLES = 200 if _FUZZ else 25

REUSABLE_SOLVERS = tuple(
    name
    for name in available_solvers()
    if resolve(name)[0].capabilities.reusable_table
)


def test_reusable_solver_inventory():
    """The property below must actually cover the table-reusing solvers."""
    assert "dp" in REUSABLE_SOLVERS


@given(chain=delta_chains(max_n=5, max_types=3), solver=st.sampled_from(REUSABLE_SOLVERS))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_repair_identity_over_random_chains(chain, solver):
    """Session repair == cold re-plan, byte for byte, at every delta."""
    base, deltas = chain
    entry, _ = resolve(solver)
    if not entry.capabilities.supports(base):
        return
    manager = SessionManager(Planner(cache_size=0))
    cold = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False))
    opened = manager.open(PlanRequest(instance=base, solver=solver))
    try:
        assert canonical_result_payload(opened.result) == canonical_result_payload(
            cold.plan(PlanRequest(instance=base, solver=solver))
        )
        mset = base
        for delta in deltas:
            mset = apply_delta(mset, delta)
            if not entry.capabilities.supports(mset):
                break
            update = manager.apply(opened.session_id, delta)
            assert update.seq == delta.seq
            assert canonical_result_payload(update.result) == canonical_result_payload(
                cold.plan(PlanRequest(instance=mset, solver=solver))
            ), f"repair diverged from cold re-plan at seq {delta.seq}"
    finally:
        manager.close(opened.session_id)


@given(chain=delta_chains(max_n=6))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_chains_never_empty_the_group(chain):
    """The chain strategy's core guarantee: every prefix stays plannable."""
    base, deltas = chain
    current = base
    for delta in deltas:
        current = apply_delta(current, delta)
        assert current.n >= 1
        assert current.source == base.source
        assert current.latency == base.latency


@given(chain=delta_chains(max_n=5))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_apply_deltas_matches_stepwise_fold(chain):
    """apply_deltas is exactly the left fold of apply_delta."""
    base, deltas = chain
    stepwise = base
    for delta in deltas:
        stepwise = apply_delta(stepwise, delta)
    assert apply_deltas(base, deltas) == stepwise


@given(chain=delta_chains(max_n=5))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_repair_mode_is_sound(chain):
    """"suffix" is only claimed when the canonical network truly matches."""
    base, deltas = chain
    after = apply_deltas(base, deltas)
    mode = repair_mode(base, after)
    assert mode in ("suffix", "rebuild")
    same = (
        base.canonical_form().network_key == after.canonical_form().network_key
    )
    assert (mode == "suffix") == same


@given(delta=membership_deltas())
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_arbitrary_deltas_apply_or_fail_closed(delta):
    """A structurally valid delta either applies cleanly or rejects whole."""
    from repro.core.multicast import MulticastSet

    base = MulticastSet.from_overheads(
        source=(2, 3), destinations=[(1, 1), (2, 3)], latency=1
    )
    before = base
    try:
        after = apply_delta(base, delta)
    except ModelError:
        # fail-closed: the membership object is untouched and replannable
        assert base == before
        return
    assert after.n >= 1
    assert after.source == base.source


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_churn_chain_is_deterministic_and_applicable(seed):
    """churn_chain replays bit-identically from (instance, seed) alone."""
    from repro.core.multicast import MulticastSet

    base = MulticastSet.from_overheads(
        source=(5, 8), destinations=[(1, 1), (1, 1), (2, 3)], latency=1
    )
    first = churn_chain(base, seed=seed, length=4)
    second = churn_chain(base, seed=seed, length=4)
    assert first == second
    final = apply_deltas(base, first)
    assert final.n >= 1
    assert tuple(d.seq for d in first) == (1, 2, 3, 4)
