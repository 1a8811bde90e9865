"""E8 — Theorem 2 closing note: precompute once, answer in constant time.

We build the full :class:`~repro.core.dp_table.OptimalTable` for small-k
networks, then compare (a) the one-off build cost, (b) the per-query lookup
cost over *every* multicast the network supports, and (c) what the same
queries would cost as fresh DP solves.

Paper expectation: per-query time after the build is microseconds and
independent of the query size, orders of magnitude below fresh solves.
"""

from __future__ import annotations

import time
from itertools import product
from typing import Dict, List

from repro.analysis.tables import Table
from repro.api import Planner
from repro.api.tables import TableCacheConfig
from repro.core.dp_table import OptimalTable

# timing experiment: fresh solves must not be served from a cache
_PLANNER = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False))
from repro.workloads.clusters import limited_type_cluster
from repro.workloads.generator import multicast_from_cluster

__all__ = ["run", "DEFAULTS", "NETWORKS"]

DEFAULTS: Dict[str, object] = {"fresh_solve_samples": 5}

#: (type overheads, per-type counts) describing each benchmark network.
NETWORKS = {
    "k=2, 20 nodes": ([(1, 1), (3, 5)], [10, 10]),
    "k=3, 18 nodes": ([(1, 1), (2, 3), (5, 8)], [6, 6, 6]),
}


def run(fresh_solve_samples: int = DEFAULTS["fresh_solve_samples"]) -> List[Table]:
    """Build tables, time queries, compare with fresh solves."""
    table = Table(
        "E8 — precomputed optimal-schedule table (Theorem 2 note)",
        [
            "network",
            "entries",
            "build (ms)",
            "queries",
            "mean query (us)",
            "mean fresh solve (ms)",
            "speedup (x)",
        ],
    )
    for label, (types, counts) in NETWORKS.items():
        start = time.perf_counter()
        opt_table = OptimalTable(types, counts, latency=1).build()
        build_time = time.perf_counter() - start

        k = len(types)
        queries = [
            (s, vec)
            for s in range(k)
            for vec in product(*(range(c + 1) for c in counts))
            if any(vec)
        ]
        start = time.perf_counter()
        for s, vec in queries:
            opt_table.completion(s, vec)
        query_time = (time.perf_counter() - start) / len(queries)

        # fresh solves for a sample of the largest queries
        fresh_times: List[float] = []
        sample = sorted(queries, key=lambda q: sum(q[1]), reverse=True)
        for s, vec in sample[:fresh_solve_samples]:
            nodes = limited_type_cluster(types, [c + (1 if t == s else 0) for t, c in enumerate(vec)])
            # place one node of the source type first so the policy picks it
            mset = multicast_from_cluster(nodes, latency=1, source="slowest")
            fresh_times.append(_PLANNER.plan(mset, solver="dp").elapsed_s)
        mean_fresh = sum(fresh_times) / len(fresh_times)
        table.add_row(
            [
                label,
                opt_table.entries,
                f"{build_time * 1e3:.1f}",
                len(queries),
                f"{query_time * 1e6:.2f}",
                f"{mean_fresh * 1e3:.2f}",
                f"{mean_fresh / query_time / 1e3:.0f}k",
            ]
        )
    table.add_note(
        "queries cover every (source type, count vector) the network "
        "supports; after build() each is a dictionary lookup"
    )
    return [table]
