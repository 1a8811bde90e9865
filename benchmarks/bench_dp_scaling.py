"""E4 benchmark — Theorem 2: the DP is optimal and O(n^{2k}).

Times ``solve_dp`` across (k, n); asserts optimality against branch-and-
bound on the small configurations.
"""

import pytest

from repro.api import Planner
from repro.api.tables import TableCacheConfig
from repro.experiments.dp_scaling import TYPE_SETS, _split
from repro.workloads.clusters import limited_type_cluster
from repro.workloads.generator import multicast_from_cluster

CONFIGS = [(1, 32), (1, 128), (2, 16), (2, 48), (3, 12), (3, 21)]


def _instance(k: int, n: int):
    nodes = limited_type_cluster(TYPE_SETS[k], _split(n + 1, k))
    return multicast_from_cluster(nodes, latency=1, source="slowest")


@pytest.mark.parametrize("k,n", CONFIGS)
def test_dp_scaling(benchmark, planner, k, n):
    mset = _instance(k, n)
    solution = benchmark(planner.plan, mset, "dp")
    benchmark.extra_info["k"] = k
    benchmark.extra_info["n"] = n
    benchmark.extra_info["states"] = solution.provenance["states_computed"]
    benchmark.extra_info["optimum"] = solution.value
    if n <= 8:
        assert solution.value == pytest.approx(planner.plan(mset, "exact").value)


def test_dp_polynomial_degree():
    """Non-timed: log-log slope stays at or below Theorem 2's 2k."""
    from repro.analysis.complexity import fit_power

    planner = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False))
    for k, sizes in ((2, (16, 32, 48, 64)), (3, (9, 15, 21, 27))):
        times = []
        for n in sizes:
            mset = _instance(k, n)
            times.append(planner.plan(mset, "dp").elapsed_s)
        exponent, _ = fit_power(sizes, times)
        assert exponent <= 2 * k + 0.5, (
            f"k={k}: measured exponent {exponent:.2f} exceeds Theorem 2's {2*k}"
        )
