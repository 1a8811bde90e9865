"""E4 — Theorem 2: the DP is optimal and polynomial for fixed k.

Two claims, two measurements:

1. **Optimality**: on every small instance the DP value equals the
   branch-and-bound optimum (and the reconstructed schedule attains it).
2. **Complexity**: DP runtime grows polynomially in ``n`` with degree about
   ``2k`` (Theorem 2's ``O(n^{2k})``); we report the fitted log-log slope
   per ``k``.  (The measured exponent typically lands *below* ``2k`` —
   the bound counts every split of every state, while memo reuse and the
   small per-state constant help in practice.)
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.complexity import fit_power
from repro.analysis.tables import Table
from repro.api import Planner, PlanRequest
from repro.api.tables import TableCacheConfig
from repro.workloads.clusters import limited_type_cluster
from repro.workloads.generator import multicast_from_cluster
from repro.workloads.suites import suite

# timing experiment (E4b): caching would turn repeats into no-ops
_PLANNER = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False))
# correctness sweep (E4a): group-solve amortizes the dp side of the grid —
# one table per canonical type system answers the whole suite, bit-identical
# to per-instance solves (the exact cross-check still certifies every row)
_GROUP_PLANNER = Planner(cache_size=0)

__all__ = ["run", "DEFAULTS", "TYPE_SETS"]

DEFAULTS: Dict[str, object] = {
    "optimality_suites": ("two-type", "three-type"),
    "optimality_max_n": 8,
    "sizes_by_k": {1: (8, 16, 32, 64, 128), 2: (8, 16, 32, 64), 3: (6, 12, 18, 24)},
    "repeats": 3,
}

#: Workstation types per k used by the scaling half of the experiment.
TYPE_SETS = {
    1: [(2, 3)],
    2: [(1, 1), (3, 5)],
    3: [(1, 1), (2, 3), (5, 8)],
}


def _split(total: int, parts: int) -> List[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def run(
    optimality_suites=DEFAULTS["optimality_suites"],
    optimality_max_n: int = DEFAULTS["optimality_max_n"],
    sizes_by_k=DEFAULTS["sizes_by_k"],
    repeats: int = DEFAULTS["repeats"],
) -> List[Table]:
    """Optimality cross-check plus runtime scaling per k."""
    opt_table = Table(
        "E4a — DP optimality vs branch-and-bound",
        ["suite", "n", "seed", "DP value", "exact value", "equal", "DP states"],
    )
    for suite_name in optimality_suites:
        rows = [
            (n, seed, mset)
            for n, seed, mset in suite(suite_name).instances()
            if n <= optimality_max_n
        ]
        dp_batch = _GROUP_PLANNER.plan_batch(
            [PlanRequest(instance=mset, solver="dp") for _n, _seed, mset in rows],
            group_solve=True,
        )
        for (n, seed, mset), dp in zip(rows, dp_batch):
            exact = _PLANNER.plan(mset, solver="exact")
            opt_table.add_row(
                [
                    suite_name,
                    n,
                    seed,
                    dp.value,
                    exact.value,
                    abs(dp.value - exact.value) < 1e-9,
                    dp.provenance["states_computed"],
                ]
            )

    scale_table = Table(
        "E4b — DP runtime scaling (Theorem 2: O(n^{2k}))",
        ["k", "n", "median time (ms)", "states"],
    )
    fits: List[str] = []
    for k, sizes in sorted(sizes_by_k.items()):
        times: List[float] = []
        for n in sizes:
            nodes = limited_type_cluster(TYPE_SETS[k], _split(n + 1, k))
            mset = multicast_from_cluster(nodes, latency=1, source="slowest")
            samples = []
            states = 0
            for _ in range(repeats):
                solution = _PLANNER.plan(mset, solver="dp")
                samples.append(solution.elapsed_s)
                states = solution.provenance["states_computed"]
            samples.sort()
            median = samples[len(samples) // 2]
            times.append(median)
            scale_table.add_row([k, n, f"{median * 1e3:.3f}", states])
        exponent, _coeff = fit_power(sizes, times)
        fits.append(
            f"k={k}: fitted n^{exponent:.2f} (Theorem 2 bound: n^{2 * k})"
        )
    for note in fits:
        scale_table.add_note(note)
    return [opt_table, scale_table]
