"""Planning-service benchmark — cold solves vs warm persistent-store hits.

Serves the E1 workload (the Figure 1 instance plus scaled fast/slow
variants of it, each planned with E1's solver set: greedy,
greedy+reversal, dp) through :class:`repro.service.PlanningService` in two
configurations:

* **cold** — no persistent store, LRU disabled: every request is a real
  solve on a worker shard;
* **warm** — a *restarted* service pointing at the store the cold run
  populated, LRU disabled: every request is served from disk
  (``tier == "store"``) without solving anything.

``test_warm_store_beats_cold_solve_5x`` is the acceptance gate: the warm
path must be at least 5x faster than cold, and the killed-and-restarted
service must return plans identical to the originals (same value, same
schedule) purely from the persistent store.
"""

import time

from repro.api import Planner, PlanRequest
from repro.api.tables import TableCacheConfig
from repro.core.multicast import MulticastSet
from repro.service import InProcessClient, PlanningService

SOLVERS = ("greedy", "greedy+reversal", "dp")
SIZES = (8, 12, 16, 20, 24)
# three-type mixes keep the cold solves expensive: the iterative DP made
# two-type instances near-free, which would let fixed service overhead
# dominate both paths and wash out the warm-vs-cold contrast this
# benchmark exists to measure
K3_SIZES = (15, 21)


def _e1_workload():
    """Figure 1 plus E1-style two/three-type instances at growing sizes."""
    instances = [
        MulticastSet.from_overheads(
            source=(2, 3),
            destinations=[(1, 1), (1, 1), (1, 1), (2, 3)],
            latency=1,
        )
    ]
    for n in SIZES:
        instances.append(
            MulticastSet.from_overheads(
                source=(2, 3),
                destinations=[(1, 1)] * (n // 2) + [(2, 3)] * (n - n // 2),
                latency=1,
            )
        )
    for n in K3_SIZES:
        third = n // 3
        instances.append(
            MulticastSet.from_overheads(
                source=(2, 3),
                destinations=[(1, 1)] * third
                + [(2, 3)] * third
                + [(5, 8)] * (n - 2 * third),
                latency=1,
            )
        )
    return [
        PlanRequest(instance=mset, solver=solver, tag=f"{mset.n}/{solver}")
        for mset in instances
        for solver in SOLVERS
    ]


def _cold_service(store_path=None):
    # cache_size=0: no LRU, so every benchmark round measures the same path
    # (real solves cold, store reads warm) instead of memory hits
    return PlanningService(
        planner=Planner(cache_size=0, table_config=TableCacheConfig(enabled=False)),
        store_path=store_path,
        num_shards=2,
        worker_mode="thread",
    )


def _serve_all(service, requests, client_id):
    client = InProcessClient(service, client_id=client_id)
    return [client.plan(request) for request in requests]


def test_cold_solve_throughput(benchmark, tmp_path):
    requests = _e1_workload()
    with _cold_service() as service:
        served = benchmark(_serve_all, service, requests, "bench-cold")
    assert all(plan.tier == "solve" for plan in served)
    benchmark.extra_info["requests"] = len(requests)


def test_warm_store_hit_throughput(benchmark, tmp_path):
    requests = _e1_workload()
    store = tmp_path / "planstore"
    with _cold_service(store) as service:
        _serve_all(service, requests, "bench-warm-populate")
    # a *fresh* service on the populated store: disk tier only, no memory
    with _cold_service(store) as service:
        served = benchmark(_serve_all, service, requests, "bench-warm")
    assert all(plan.tier == "store" for plan in served)
    benchmark.extra_info["requests"] = len(requests)


def test_warm_store_beats_cold_solve_5x(tmp_path):
    """Acceptance: warm >= 5x cold, restart serves identical plans."""
    requests = _e1_workload()
    store = tmp_path / "planstore"

    with _cold_service(store) as service:
        start = time.perf_counter()
        cold = _serve_all(service, requests, "acceptance-cold")
        cold_elapsed = time.perf_counter() - start
    assert all(plan.tier == "solve" for plan in cold)

    # "kill" the service (stopped above) and restart on the same store
    with _cold_service(store) as service:
        start = time.perf_counter()
        warm = _serve_all(service, requests, "acceptance-warm")
        warm_elapsed = time.perf_counter() - start
    assert all(plan.tier == "store" for plan in warm)

    # identical PlanResults out of the persistent store
    for before, after in zip(cold, warm):
        assert after.result.value == before.result.value
        assert after.result.schedule == before.result.schedule
        assert after.result.solver == before.result.solver

    assert warm_elapsed * 5 <= cold_elapsed, (
        f"warm store path not >=5x faster: cold {cold_elapsed:.4f}s, "
        f"warm {warm_elapsed:.4f}s ({cold_elapsed / warm_elapsed:.1f}x)"
    )
