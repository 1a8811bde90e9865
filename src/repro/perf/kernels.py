"""The curated benchmark-kernel registry behind ``perf run``.

Each kernel mirrors one timed experiment of the ``benchmarks/`` suite,
self-contained enough to run from the CLI without pytest: it builds its
workload deterministically, times the hot path with
:func:`repro.perf.measure.measure`, attaches the paper-relevant metrics
the pytest benchmarks stamp into ``extra_info``, and reports kernel-level
aggregates in its ``summary``.

The ``dp_scaling`` and ``greedy_scaling`` kernels additionally time the
frozen pre-optimization implementations from :mod:`repro.perf.reference`
over the same instances and stamp the aggregate ``speedup_vs_reference``
— a machine-*independent* metric with committed floors (``3.0`` and
``2.0``) that ``perf compare`` enforces on every run, whatever hardware
CI happens to land on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.exceptions import ReproError
from repro.perf.baseline import CaseResult
from repro.perf.measure import measure, measure_pair

__all__ = ["Kernel", "KERNELS", "available_kernels", "get_kernel"]

#: A kernel body: ``(mode, repeats) -> (cases, summary)``.
KernelFn = Callable[[str, int], Tuple[List[CaseResult], Dict[str, Any]]]

MODES = ("quick", "full")


@dataclass(frozen=True)
class Kernel:
    """One registered benchmark kernel."""

    name: str
    description: str
    fn: KernelFn
    floors: Dict[str, float] = field(default_factory=dict)

    def run(self, mode: str = "quick", repeats: int = 5):
        """Execute the kernel; returns ``(cases, summary)``."""
        if mode not in MODES:
            raise ReproError(f"perf mode must be one of {MODES}, got {mode!r}")
        return self.fn(mode, repeats)


def _bounded_instance(n: int, *, seed: int = 0, latency: float = 2):
    from repro.workloads.clusters import bounded_ratio_cluster
    from repro.workloads.generator import multicast_from_cluster

    nodes = bounded_ratio_cluster(n + 1, seed=seed)
    return multicast_from_cluster(nodes, latency=latency, source="slowest")


def _limited_instance(k: int, n: int):
    from repro.experiments.dp_scaling import TYPE_SETS, _split
    from repro.workloads.clusters import limited_type_cluster
    from repro.workloads.generator import multicast_from_cluster

    nodes = limited_type_cluster(TYPE_SETS[k], _split(n + 1, k))
    return multicast_from_cluster(nodes, latency=1, source="slowest")


# ----------------------------------------------------------------------
# dp_scaling — E4: the Section 4 DP across (k, n)
# ----------------------------------------------------------------------
def _dp_scaling(mode: str, repeats: int):
    from repro.core.dp_vector import solve_dp_backend
    from repro.perf.reference import reference_solve_dp

    configs = (
        [(1, 64), (2, 16), (3, 9)]
        if mode == "quick"
        else [(1, 128), (2, 32), (2, 48), (3, 12), (3, 21)]
    )
    cases: List[CaseResult] = []
    new_total = ref_total = 0.0
    for k, n in configs:
        mset = _limited_instance(k, n)
        # the production hot path: auto backend (vector where it wins)
        (stats, solution), (ref_stats, (ref_value, _ref_schedule)) = measure_pair(
            lambda: solve_dp_backend(mset, backend="auto"),
            lambda: reference_solve_dp(mset),
            repeats=repeats,
        )
        if solution.value != ref_value:
            raise ReproError(
                f"optimized DP diverged from reference on k={k}, n={n}: "
                f"{solution.value} != {ref_value}"
            )
        new_total += stats.min_s
        ref_total += ref_stats.min_s
        cases.append(
            CaseResult(
                case=f"k={k},n={n}",
                timing=stats,
                extra_info={
                    "k": k,
                    "n": n,
                    "states": solution.states_computed,
                    "optimum": solution.value,
                    "reference_min_s": ref_stats.min_s,
                    "speedup_vs_reference": round(ref_stats.min_s / stats.min_s, 3),
                },
            )
        )
    summary = {"speedup_vs_reference": round(ref_total / new_total, 3)}
    return cases, summary


# ----------------------------------------------------------------------
# dp_table — E8: Theorem 2 closing note, build once / answer in O(1)
# ----------------------------------------------------------------------
def _dp_table(mode: str, repeats: int):
    from repro.core.dp_table import OptimalTable
    from repro.experiments.dp_scaling import TYPE_SETS

    networks = (
        [(2, (8, 8)), (3, (4, 4, 4))]
        if mode == "quick"
        else [(2, (16, 16)), (3, (7, 7, 7))]
    )
    cases: List[CaseResult] = []
    for k, max_counts in networks:
        types = TYPE_SETS[k]

        def build():
            return OptimalTable(types, max_counts, latency=1).build()

        stats, table = measure(build, repeats=repeats)
        query_stats, _ = measure(
            lambda: table.completion(0, max_counts), repeats=repeats
        )
        cases.append(
            CaseResult(
                case=f"k={k},counts={'x'.join(map(str, max_counts))}",
                timing=stats,
                extra_info={
                    "k": k,
                    "entries": table.entries,
                    "query_min_s": query_stats.min_s,
                },
            )
        )
    return cases, {}


# ----------------------------------------------------------------------
# dp_vector — the slab-vectorized DP engine vs the scalar scan
# ----------------------------------------------------------------------
def _dp_vector(mode: str, repeats: int):
    """``dp(backend=vector)`` vs ``dp(backend=scalar)`` on large slabs.

    Times the numpy slab engine against the scalar per-state scan on
    general-``k`` boxes past the auto-dispatch crossover, gating the
    machine-independent ``speedup_vs_scalar`` floor.  Integrity gate:
    each vector solve must be *bit-identical* to the scalar solve —
    value, schedule and ``states_computed`` — so a vectorization change
    that drifts numerically fails the kernel, not just conformance.
    """
    from repro.core.dp import solve_dp
    from repro.core.dp_vector import solve_dp_vector

    configs = (
        [(2, 64), (2, 80)] if mode == "quick" else [(2, 64), (2, 96), (3, 36)]
    )
    cases: List[CaseResult] = []
    vec_total = scalar_total = 0.0
    for k, n in configs:
        mset = _limited_instance(k, n)
        (stats, solution), (ref_stats, ref_solution) = measure_pair(
            lambda: solve_dp_vector(mset),
            lambda: solve_dp(mset),
            repeats=repeats,
        )
        if (
            solution.value != ref_solution.value
            or solution.schedule != ref_solution.schedule
            or solution.states_computed != ref_solution.states_computed
        ):
            raise ReproError(
                f"vector DP diverged from scalar on k={k}, n={n}: "
                f"{solution.value} != {ref_solution.value} or schedule/"
                "states mismatch"
            )
        vec_total += stats.min_s
        scalar_total += ref_stats.min_s
        cases.append(
            CaseResult(
                case=f"k={k},n={n}",
                timing=stats,
                extra_info={
                    "k": k,
                    "n": n,
                    "states": solution.states_computed,
                    "optimum": solution.value,
                    "scalar_min_s": ref_stats.min_s,
                    "speedup_vs_scalar": round(ref_stats.min_s / stats.min_s, 3),
                },
            )
        )
    summary = {"speedup_vs_scalar": round(scalar_total / vec_total, 3)}
    return cases, summary


# ----------------------------------------------------------------------
# table_snapshot — mmap warm-attach vs cold table rebuild
# ----------------------------------------------------------------------
def _table_snapshot(mode: str, repeats: int):
    """:meth:`OptimalTable.load_snapshot` vs a cold ``build()``.

    Writes one ``repro/table-snapshot-v1`` file in setup, then times the
    zero-copy mmap attach against rebuilding the same table from scratch
    (with the auto backend — the cold path a restarted service would
    actually pay).  Integrity gates: the loaded table must answer every
    sampled completion bit-identically to the freshly built one and bind
    the same full-box schedule, so a snapshot codec regression fails the
    kernel rather than surviving as a fast-but-wrong warm start.
    """
    import tempfile
    from pathlib import Path

    from repro.core.dp_table import OptimalTable
    from repro.experiments.dp_scaling import TYPE_SETS

    k, max_counts = (2, (32, 32)) if mode == "quick" else (2, (48, 48))
    types = TYPE_SETS[k]
    cases: List[CaseResult] = []
    with tempfile.TemporaryDirectory(prefix="repro-snap-") as tmp:
        path = Path(tmp) / "table.snap"
        built = OptimalTable(types, max_counts, latency=1).build()
        built.save_snapshot(path)

        def cold_build():
            return OptimalTable(types, max_counts, latency=1).build()

        def warm_attach():
            return OptimalTable.load_snapshot(path)

        (stats, loaded), (ref_stats, rebuilt) = measure_pair(
            warm_attach, cold_build, repeats=repeats
        )
        samples = [
            (s, counts)
            for s in range(k)
            for counts in (
                max_counts,
                tuple(c // 2 for c in max_counts),
                (max_counts[0], 0),
                (0, max_counts[1]),
            )
        ]
        for s, counts in samples:
            if loaded.completion(s, counts) != rebuilt.completion(s, counts):
                raise ReproError(
                    f"snapshot-loaded table diverged from rebuild at "
                    f"s={s}, counts={counts}"
                )
        from repro.workloads.clusters import limited_type_cluster
        from repro.workloads.generator import multicast_from_cluster

        nodes = limited_type_cluster(types, list(max_counts))
        full_box = multicast_from_cluster(nodes, latency=1, source="slowest")
        if loaded.schedule_for(full_box) != rebuilt.schedule_for(full_box):
            raise ReproError("snapshot-loaded schedule binding diverged")
        speedup = round(ref_stats.min_s / stats.min_s, 3)
        cases.append(
            CaseResult(
                case=f"k={k},counts={'x'.join(map(str, max_counts))}",
                timing=stats,
                extra_info={
                    "k": k,
                    "entries": loaded.entries,
                    "snapshot_bytes": path.stat().st_size,
                    "cold_build_min_s": ref_stats.min_s,
                    "speedup_vs_cold_build": speedup,
                },
            )
        )
    return cases, {"speedup_vs_cold_build": speedup}


# ----------------------------------------------------------------------
# greedy_scaling — E3: Lemma 1's O(n log n) loop
# ----------------------------------------------------------------------
def _greedy_scaling(mode: str, repeats: int):
    from repro.core.greedy import greedy_schedule
    from repro.perf.reference import reference_greedy_schedule

    sizes = [1024, 4096] if mode == "quick" else [256, 1024, 4096, 16384]
    cases: List[CaseResult] = []
    new_total = ref_total = 0.0
    # the greedy ratio gates a tight (>= 2x) floor: extra interleaved
    # repeats keep its variance well under the floor's safety margin
    repeats = max(repeats, 9)
    for n in sizes:
        mset = _bounded_instance(n)
        (stats, schedule), (ref_stats, ref_schedule) = measure_pair(
            lambda: greedy_schedule(mset),
            lambda: reference_greedy_schedule(mset),
            repeats=repeats,
        )
        if (
            schedule != ref_schedule
            or schedule.reception_times != ref_schedule.reception_times
        ):
            raise ReproError(
                f"optimized greedy diverged from reference on n={n}"
            )
        if not schedule.is_layered():
            raise ReproError(f"greedy schedule not layered on n={n}")
        new_total += stats.min_s
        ref_total += ref_stats.min_s
        cases.append(
            CaseResult(
                case=f"n={n}",
                timing=stats,
                extra_info={
                    "n": n,
                    "R_T": schedule.reception_completion,
                    "per_nlogn_ns": round(
                        stats.min_s / (n * math.log2(n)) * 1e9, 3
                    ),
                    "reference_min_s": ref_stats.min_s,
                    "speedup_vs_reference": round(ref_stats.min_s / stats.min_s, 3),
                },
            )
        )
    summary = {"speedup_vs_reference": round(ref_total / new_total, 3)}
    return cases, summary


# ----------------------------------------------------------------------
# planner_batch — repro.api throughput, serial and fanned out
# ----------------------------------------------------------------------
def _planner_batch(mode: str, repeats: int):
    from repro.api import Planner, PlanRequest
    from repro.api.tables import TableCacheConfig

    suite_size, n = (32, 16) if mode == "quick" else (128, 24)
    requests = [
        PlanRequest(instance=_bounded_instance(n, seed=seed), solver="greedy+reversal")
        for seed in range(suite_size)
    ]
    cases: List[CaseResult] = []
    for jobs in (1, 4):
        planner = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False))
        stats, batch = measure(
            lambda: planner.plan_batch(requests, jobs=jobs), repeats=repeats
        )
        if len(batch) != suite_size:
            raise ReproError(
                f"planner batch dropped requests: {len(batch)}/{suite_size}"
            )
        cases.append(
            CaseResult(
                case=f"jobs={jobs}",
                timing=stats,
                extra_info={
                    "instances": suite_size,
                    "n": n,
                    "instances_per_s": round(suite_size / stats.min_s),
                },
            )
        )
    return cases, {}


# ----------------------------------------------------------------------
# batch_amortized — group-solve plan_batch vs per-instance planning
# ----------------------------------------------------------------------
def _batch_amortized(mode: str, repeats: int):
    """Same-type-system sweeps answered by one table per canonical bucket.

    The workload mixes raw instances with renamed / power-of-two-rescaled
    equivalents, so the canonical bucketing (not just exact key reuse) is
    what earns the speedup.  The baseline is *raw* per-instance planning
    (table reuse off — every request a full solve, the pre-PR-4 shape
    of fleet traffic), mirroring how the DP/greedy kernels compare
    against their frozen references.  Two integrity gates keep the floor
    honest: every output is asserted byte-identical — provenance and
    ``states_computed`` included — against that baseline, and the grouped
    planner's table-cache counters must show the bucket signature (one
    build per canonical bucket, zero per-request hits or extensions), so
    a regression that silently falls back to per-request table reuse
    fails the kernel rather than coasting on the cache.
    """
    import json

    from repro.api import Planner, PlanRequest
    from repro.api.tables import TableCacheConfig
    from repro.core.multicast import MulticastSet
    from repro.io.serialization import plan_result_to_dict

    def two_type(fast: int, slow: int, scale: int = 1):
        return MulticastSet.from_overheads(
            source=(2 * scale, 3 * scale),
            destinations=[(1 * scale, 1 * scale)] * fast
            + [(2 * scale, 3 * scale)] * slow,
            latency=scale,
        )

    def three_type(a: int, b: int, c: int):
        return MulticastSet.from_overheads(
            source=(5, 8),
            destinations=[(1, 1)] * a + [(2, 3)] * b + [(5, 8)] * c,
            latency=1,
        )

    top = 13 if mode == "quick" else 16
    requests = [
        PlanRequest(instance=two_type(fast, slow, scale), solver="dp")
        for scale in (1, 2)  # power-of-two-scaled sweeps share one bucket
        for fast in range(top + 1)
        for slow in range(top + 1)
        if fast + slow > 0
    ]
    if mode == "full":
        requests += [
            PlanRequest(instance=three_type(a, b, c), solver="dp")
            for a in range(6)
            for b in range(6)
            for c in range(6)
            if a + b + c > 0
        ]

    def payload(result) -> str:
        body = plan_result_to_dict(result)
        body["elapsed_s"] = 0.0
        return json.dumps(body, sort_keys=True)

    grouped_planner: List[Any] = []

    def grouped():
        # fresh planner per run: the bucket tables are built inside the
        # timed region, so the speedup includes the amortized build
        planner = Planner(cache_size=0)
        grouped_planner[:] = [planner]
        return planner.plan_batch(requests, group_solve=True)

    def per_instance():
        planner = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False))
        return planner.plan_batch(requests, group_solve=False)

    (stats, batch), (ref_stats, ref_batch) = measure_pair(
        grouped, per_instance, repeats=repeats
    )
    if len(batch) != len(requests) or len(ref_batch) != len(requests):
        raise ReproError("batch_amortized dropped requests")
    buckets = len(
        {
            (canon.mset.type_keys(), canon.mset.latency)
            for canon in (r.instance.canonical_form() for r in requests)
        }
    )
    table_stats = grouped_planner[0].table_cache.stats()
    if (
        table_stats["builds"] != buckets
        or table_stats["hits"]
        or table_stats["extensions"]
    ):
        raise ReproError(
            "group-solve did not run as a bucket sweep: expected "
            f"{buckets} bucket builds and no per-request table traffic, "
            f"got {table_stats}"
        )
    for ours, theirs in zip(batch, ref_batch):
        if payload(ours) != payload(theirs):
            raise ReproError(
                "group-solve output diverged from per-instance planning "
                f"on tag={theirs.tag!r}"
            )
    speedup = round(ref_stats.min_s / stats.min_s, 3)
    cases = [
        CaseResult(
            case=f"sweep[{len(requests)}]",
            timing=stats,
            extra_info={
                "instances": len(requests),
                "instances_per_s": round(len(requests) / stats.min_s),
                "per_instance_min_s": ref_stats.min_s,
                "speedup_vs_per_instance": speedup,
            },
        )
    ]
    return cases, {"speedup_vs_per_instance": speedup}


# ----------------------------------------------------------------------
# delta_replan — session repair under churn vs cold re-planning
# ----------------------------------------------------------------------
def _delta_replan(mode: str, repeats: int):
    """Single-join / single-leave deltas repaired from the pinned table.

    One session rides a chain of three joins then three leaves; every
    delta stays inside the base instance's canonical network (the source
    carries the largest overheads, so the power-of-two scale never
    moves), which is exactly the traffic the repair engine accelerates:
    each repaired schedule is an ``O(n)`` materialization from the
    session's pinned :class:`~repro.core.dp_table.OptimalTable` instead
    of a cold DP re-plan.  The baseline re-plans every membership from
    scratch (table reuse off).  Three integrity gates keep the floor
    honest: every update must actually take the repair path, every
    repaired plan is asserted byte-identical — provenance included — to
    the cold baseline of the same membership, and the shared table cache
    must show the steady-state signature (one build, one incremental
    extension per join, no evictions), so a regression that silently
    rebuilds per delta fails the kernel rather than hiding in the timing.
    """
    import json

    from repro.api import Planner, PlanRequest
    from repro.api.tables import TableCacheConfig
    from repro.core.multicast import MulticastSet
    from repro.core.node import Node
    from repro.core.repair import MembershipDelta, apply_delta
    from repro.io.serialization import plan_result_to_dict
    from repro.service.sessions import SessionManager

    half = 10 if mode == "quick" else 16
    base = MulticastSet.from_overheads(
        source=(5, 8),
        destinations=[(1, 1)] * half + [(2, 3)] * half,
        latency=1,
    )
    deltas = [
        MembershipDelta(seq=i, joins=(Node(f"j{i}", 2, 3),)) for i in (1, 2, 3)
    ] + [
        MembershipDelta(seq=4, leaves=("j1",)),
        MembershipDelta(seq=5, leaves=(base.destinations[0].name,)),
        MembershipDelta(seq=6, leaves=(base.destinations[-1].name,)),
    ]
    memberships = []
    current = base
    for delta in deltas:
        current = apply_delta(current, delta)
        memberships.append(current)

    def payload(result) -> str:
        body = plan_result_to_dict(result)
        body["elapsed_s"] = 0.0
        body["cache_hit"] = False
        body["tag"] = None
        return json.dumps(body, sort_keys=True)

    # one planner across runs: the warmup run pays the table build and
    # the per-join extensions, the timed runs measure steady-state repair
    planner = Planner(cache_size=0)
    updates_seen: List[Any] = []

    def repair_run():
        manager = SessionManager(planner)
        opened = manager.open(PlanRequest(instance=base, solver="dp"))
        try:
            updates = [opened] + [
                manager.apply(opened.session_id, delta) for delta in deltas
            ]
        finally:
            manager.close(opened.session_id)
        updates_seen[:] = updates
        return [update.result for update in updates]

    def full_replan():
        cold = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False))
        return [
            cold.plan(PlanRequest(instance=mset, solver="dp"))
            for mset in [base] + memberships
        ]

    (stats, repaired), (ref_stats, replanned) = measure_pair(
        repair_run, full_replan, repeats=repeats
    )
    if not all(update.repaired for update in updates_seen):
        raise ReproError("delta_replan saw a non-repaired session update")
    for ours, theirs in zip(repaired, replanned):
        if payload(ours) != payload(theirs):
            raise ReproError(
                "repaired plan diverged from cold re-plan at position "
                f"{repaired.index(ours)}"
            )
    table_stats = planner.table_cache.stats()
    if (
        table_stats["builds"] != 1
        or table_stats["extensions"] != 3
        or table_stats["evictions"]
    ):
        raise ReproError(
            "delta_replan did not run as pinned-table repair: expected one "
            f"build, three extensions and no evictions, got {table_stats}"
        )
    speedup = round(ref_stats.min_s / stats.min_s, 3)
    cases = [
        CaseResult(
            case=f"chain[{len(deltas)}]@n={base.n}",
            timing=stats,
            extra_info={
                "n": base.n,
                "deltas": len(deltas),
                "deltas_per_s": round(len(deltas) / stats.min_s),
                "full_replan_min_s": ref_stats.min_s,
                "speedup_vs_full_replan": speedup,
            },
        )
    ]
    return cases, {"speedup_vs_full_replan": speedup}


# ----------------------------------------------------------------------
# conformance_sweep — the verifier itself must stay CI-fast
# ----------------------------------------------------------------------
def _conformance_sweep(mode: str, repeats: int):
    from repro.conformance import ConformanceRunner, generate_corpus

    suite = "smoke" if mode == "quick" else "quick"
    specs = generate_corpus(suite)
    repeats = min(repeats, 3 if mode == "quick" else 1)

    def sweep():
        report = ConformanceRunner(service_every=0, shrink=False).run(specs)
        if not report.ok:
            raise ReproError(
                f"conformance sweep failed during perf run:\n{report.summary()}"
            )
        return report

    stats, report = measure(sweep, repeats=repeats)
    cases = [
        CaseResult(
            case=f"suite={suite}",
            timing=stats,
            extra_info={
                "scenarios": report.scenarios,
                "invariant_checks": report.checks,
                "scenarios_per_s": round(report.scenarios / stats.min_s),
                "solvers": len(report.solvers),
            },
        )
    ]
    return cases, {}


# ----------------------------------------------------------------------
# service_throughput — the asyncio planning service end to end
# ----------------------------------------------------------------------
def _service_throughput(mode: str, repeats: int):
    from repro.api import Planner, PlanRequest
    from repro.api.tables import TableCacheConfig
    from repro.core.multicast import MulticastSet
    from repro.service import InProcessClient, PlanningService

    sizes = (8, 12) if mode == "quick" else (8, 12, 16, 20)
    requests = [
        PlanRequest(
            instance=MulticastSet.from_overheads(
                source=(2, 3),
                destinations=[(1, 1)] * (n // 2) + [(2, 3)] * (n - n // 2),
                latency=1,
            ),
            solver=solver,
            tag=f"{n}/{solver}",
        )
        for n in sizes
        for solver in ("greedy", "greedy+reversal")
    ]
    repeats = min(repeats, 3)

    def serve_all():
        # cache- and table-reuse-free planner: every request is a real
        # solve routed through admission, sharding and the worker pool
        with PlanningService(
            planner=Planner(cache_size=0, table_config=TableCacheConfig(enabled=False)),
            num_shards=2,
            worker_mode="thread",
        ) as service:
            client = InProcessClient(service, client_id="perf")
            return [client.plan(request) for request in requests]

    stats, served = measure(serve_all, repeats=repeats)
    if not all(plan.tier == "solve" for plan in served):
        raise ReproError("service throughput kernel saw non-solve tiers")
    cases = [
        CaseResult(
            case="cold-solves",
            timing=stats,
            extra_info={
                "requests": len(requests),
                "requests_per_s": round(len(requests) / stats.min_s),
            },
        )
    ]
    return cases, {}


# ----------------------------------------------------------------------
# service_resilience — throughput recovery after an injected fault storm
# ----------------------------------------------------------------------
def _service_resilience(mode: str, repeats: int):
    """Post-fault recovery of the TCP service under a retrying client.

    Three phases against one long-lived service: (1) a timed fault-free
    baseline of cold solves over the wire; (2) an *untimed* storm — a
    seeded fault plan drops client frames and injects solver errors, and
    every request must still complete through the client's
    :class:`~repro.service.client.RetryPolicy` (the kernel fails if no
    fault fired or no retry happened, so the resilience path is provably
    on the measured service); (3) a timed recovery phase.  The committed
    floor is the machine-independent ratio ``baseline / recovery``: after
    the storm the same service must serve at >= 0.5x its fault-free
    throughput — a service that leaks broken state (dead workers, wedged
    queues, poisoned connections) fails the floor, not just a timing.
    """
    from repro import faults
    from repro.api import Planner, PlanRequest
    from repro.api.tables import TableCacheConfig
    from repro.core.multicast import MulticastSet
    from repro.faults import FaultPlan, FaultSpec
    from repro.service import PlanningService
    from repro.service.client import RetryPolicy, ServiceClient

    sizes = (8, 12) if mode == "quick" else (8, 12, 16, 20)
    requests = [
        PlanRequest(
            instance=MulticastSet.from_overheads(
                source=(2, 3),
                destinations=[(1, 1)] * (n // 2) + [(2, 3)] * (n - n // 2),
                latency=1,
            ),
            solver=solver,
            tag=f"{n}/{solver}",
        )
        for n in sizes
        for solver in ("greedy", "greedy+reversal")
    ]
    repeats = min(repeats, 3)
    service = PlanningService(
        planner=Planner(cache_size=0, table_config=TableCacheConfig(enabled=False)),
        num_shards=2,
        worker_mode="thread",
    )
    address = service.start_background(tcp=True)
    assert address is not None
    client = ServiceClient(
        address[0],
        address[1],
        client_id="perf-resilience",
        timeout=0.75,
        retry=RetryPolicy(
            attempts=5, base_delay_s=0.01, max_delay_s=0.1, seed=0
        ),
    )
    try:

        def serve_all():
            plans = [client.plan(request) for request in requests]
            if not all(plan.tier == "solve" for plan in plans):
                raise ReproError("resilience kernel saw non-solve tiers")
            return plans

        baseline, _ = measure(serve_all, repeats=repeats)
        storm = FaultPlan(
            [
                FaultSpec("client.drop_send", rate=0.3, count=3),
                FaultSpec("solver.error", rate=0.3, count=4),
            ],
            seed=11,
            name="perf-storm",
        )
        with faults.inject(storm):
            served = serve_all()  # untimed: completion under faults is the point
        if len(served) != len(requests):
            raise ReproError("fault storm lost requests")
        if storm.total_fired() == 0:
            raise ReproError("resilience kernel injected no faults")
        if client.local_metrics.get("retries") == 0:
            raise ReproError("fault storm exercised no client retries")
        recovery, _ = measure(serve_all, repeats=repeats)
    finally:
        client.close()
        service.stop()
    ratio = round(baseline.min_s / recovery.min_s, 3)
    cases = [
        CaseResult(
            case="fault-free-baseline",
            timing=baseline,
            extra_info={
                "requests": len(requests),
                "requests_per_s": round(len(requests) / baseline.min_s),
            },
        ),
        CaseResult(
            case="post-storm-recovery",
            timing=recovery,
            extra_info={
                "requests": len(requests),
                "requests_per_s": round(len(requests) / recovery.min_s),
                "faults_fired": storm.total_fired(),
                "retries": client.local_metrics.get("retries"),
                "reconnects": client.local_metrics.get("reconnects"),
            },
        ),
    ]
    return cases, {"recovery_throughput_ratio": ratio}


# ----------------------------------------------------------------------
# multi_group — cross-group composition vs naive serialization
# ----------------------------------------------------------------------
def _multi_group(mode: str, repeats: int):
    """Concurrent multi-group planning under shared-sender contention.

    Plans one contended :func:`repro.workloads.multi_group_workload`
    trace with every registered ``mg-*`` composition strategy through a
    shared planner, then gates on the *machine-independent* schedule
    quality: the best interleaved strategy's max-makespan must beat naive
    sequential serialization by at least 1.5x (the committed floor).  The
    workload is deterministic, so the ratio is a pure function of the
    library — a composition regression moves the floor, not just the
    timing.  Integrity gates: every strategy's placement passes the
    analytic no-contention check, sequential equals the sum of group
    completions, greedy packing never exceeds sequential (its dominance
    guarantee holds exactly), two fresh evaluations agree bit-for-bit,
    and the inner solves stay amortized (the shared table cache never
    rebuilds after the first strategy's batch).
    """
    from repro.api.multigroup import MultiGroupPlanner
    from repro.api.planner import Planner
    from repro.workloads.multigroup import multi_group_workload

    groups, n, seed, latency, relays = (
        (6, 6, 0, 16, 1) if mode == "quick" else (8, 6, 0, 16, 0)
    )
    instance = multi_group_workload(
        groups=groups, n=n, seed=seed, latency=latency, relays=relays
    )
    planner = Planner()
    mg_planner = MultiGroupPlanner(planner)

    def snapshot(results):
        return {
            name: (r.offsets, r.max_makespan, r.weighted_sum)
            for name, r in results.items()
        }

    def compare():
        return mg_planner.compare_strategies(instance, solver="dp")

    # determinism gate: a fresh planner must reproduce the warm results
    fresh = snapshot(MultiGroupPlanner(Planner()).compare_strategies(
        instance, solver="dp"
    ))
    stats, results = measure(compare, repeats=repeats)
    if snapshot(results) != fresh:
        raise ReproError("multi_group composition is not deterministic")
    for name, result in results.items():
        result.schedule.assert_no_contention()
        if not all(r.exact for r in result.group_results):
            raise ReproError(f"{name} inner solves were not exact dp plans")
    sequential = results["mg-sequential"].max_makespan
    expected = sum(r.value for r in results["mg-sequential"].group_results)
    if abs(sequential - expected) > 1e-9:
        raise ReproError(
            f"sequential makespan {sequential:g} != sum of completions {expected:g}"
        )
    if results["mg-greedy-pack"].max_makespan > sequential + 1e-9:
        raise ReproError("greedy packing lost to sequential serialization")
    table_stats = planner.table_cache.stats()
    if table_stats["builds"] > groups or table_stats["evictions"]:
        raise ReproError(
            "multi_group inner solves were not amortized: expected at most "
            f"one table build per group and no evictions, got {table_stats}"
        )
    interleaved = {
        name: r.max_makespan
        for name, r in results.items()
        if name != "mg-sequential"
    }
    best = min(interleaved.values())
    ratio = round(sequential / best, 3)
    cases = [
        CaseResult(
            case=f"groups={groups} n={n} L={latency:g}",
            timing=stats,
            extra_info={
                "groups": groups,
                "shared_nodes": len(instance.shared_nodes()),
                "sequential_makespan": sequential,
                "best_interleaved_makespan": best,
                "per_strategy": {
                    name: results[name].max_makespan for name in sorted(results)
                },
                "plans_per_s": round(len(results) * groups / stats.min_s),
            },
        )
    ]
    return cases, {"makespan_ratio_vs_sequential": ratio}


KERNELS: Dict[str, Kernel] = {
    kernel.name: kernel
    for kernel in (
        Kernel(
            "dp_scaling",
            "Section 4 DP solves across (k, n) vs the frozen reference",
            _dp_scaling,
            floors={"speedup_vs_reference": 3.0},
        ),
        Kernel(
            "dp_table",
            "Theorem 2 closing-note table builds + O(1) queries",
            _dp_table,
        ),
        Kernel(
            "dp_vector",
            "slab-vectorized DP engine vs the scalar scan, bit-identical",
            _dp_vector,
            floors={"speedup_vs_scalar": 2.0},
        ),
        Kernel(
            "table_snapshot",
            "mmap table-snapshot warm attach vs cold rebuild, bit-identical",
            _table_snapshot,
            floors={"speedup_vs_cold_build": 5.0},
        ),
        Kernel(
            "greedy_scaling",
            "Lemma 1 greedy loop across n vs the frozen reference",
            _greedy_scaling,
            floors={"speedup_vs_reference": 2.0},
        ),
        Kernel(
            "planner_batch",
            "repro.api plan_batch throughput, serial and 4-way",
            _planner_batch,
        ),
        Kernel(
            "batch_amortized",
            "group-solve plan_batch vs per-instance planning, bit-identical",
            _batch_amortized,
            floors={"speedup_vs_per_instance": 3.0},
        ),
        Kernel(
            "delta_replan",
            "single-join/single-leave session repair vs cold re-planning, "
            "bit-identical",
            _delta_replan,
            floors={"speedup_vs_full_replan": 5.0},
        ),
        Kernel(
            "multi_group",
            "concurrent multi-group composition vs naive serialization "
            "under shared-sender contention",
            _multi_group,
            floors={"makespan_ratio_vs_sequential": 1.5},
        ),
        Kernel(
            "conformance_sweep",
            "differential conformance runner over a seed corpus",
            _conformance_sweep,
        ),
        Kernel(
            "service_throughput",
            "planning service cold-solve round trips (in-process client)",
            _service_throughput,
        ),
        Kernel(
            "service_resilience",
            "post-fault-storm service throughput recovery with a retrying "
            "wire client",
            _service_resilience,
            floors={"recovery_throughput_ratio": 0.5},
        ),
    )
}


def available_kernels() -> List[str]:
    """Sorted names of every registered perf kernel."""
    return sorted(KERNELS)


def get_kernel(name: str) -> Kernel:
    """Look up a kernel by name."""
    try:
        return KERNELS[name]
    except KeyError:
        raise ReproError(
            f"unknown perf kernel {name!r}; available: {available_kernels()}"
        ) from None
