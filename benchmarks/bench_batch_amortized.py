"""Amortized batch planning — group-solve sweeps vs per-instance solves.

Plans a same-type-system sweep (every destination mix of a two-type
network, plus power-of-two-rescaled duplicates that canonicalize onto the
same bucket) through :meth:`repro.api.Planner.plan_batch` with
``group_solve=True`` — one optimal table answers the whole sweep — and
per-instance with table reuse off.  The speedup is gated as a committed
machine-independent floor by the ``batch_amortized`` perf kernel; here the
timed halves are reported side by side and the outputs asserted identical.
"""

from repro.api import Planner, PlanRequest
from repro.api.tables import TableCacheConfig
from repro.core.multicast import MulticastSet

#: Table reuse off: every dp plan is a direct solve.
NO_TABLES = TableCacheConfig(enabled=False)

TOP = 12


def _sweep():
    requests = []
    for scale in (1, 2):
        for fast in range(TOP + 1):
            for slow in range(TOP + 1):
                if fast + slow == 0:
                    continue
                mset = MulticastSet.from_overheads(
                    source=(2 * scale, 3 * scale),
                    destinations=[(scale, scale)] * fast
                    + [(2 * scale, 3 * scale)] * slow,
                    latency=scale,
                )
                requests.append(PlanRequest(instance=mset, solver="dp"))
    return requests


def test_group_solve_sweep(benchmark):
    requests = _sweep()

    def grouped():
        return Planner(cache_size=0).plan_batch(requests, group_solve=True)

    batch = benchmark(grouped)
    assert len(batch) == len(requests)
    benchmark.extra_info["instances"] = len(requests)
    benchmark.extra_info["instances_per_s"] = round(len(batch) / batch.elapsed_s)


def test_per_instance_sweep(benchmark):
    requests = _sweep()

    def per_instance():
        return Planner(cache_size=0, table_config=NO_TABLES).plan_batch(
            requests, group_solve=False
        )

    batch = benchmark(per_instance)
    assert len(batch) == len(requests)
    benchmark.extra_info["instances"] = len(requests)
    benchmark.extra_info["instances_per_s"] = round(len(batch) / batch.elapsed_s)


def test_group_equals_per_instance():
    """Non-timed: the contract — grouping changes nothing but wall-clock."""
    requests = _sweep()
    grouped = Planner(cache_size=0).plan_batch(requests, group_solve=True)
    direct = Planner(cache_size=0, table_config=NO_TABLES).plan_batch(
        requests, group_solve=False
    )
    assert grouped.values() == direct.values()
    assert [r.schedule for r in grouped] == [r.schedule for r in direct]
    assert [r.provenance for r in grouped] == [r.provenance for r in direct]
