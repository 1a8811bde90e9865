"""The group-solve engine: bucketing, parity, fallbacks, prewarm."""

import json

import pytest

from repro.api import Planner, PlanRequest
from repro.api.tables import TableCacheConfig
from repro.core.multicast import MulticastSet
from repro.exceptions import ReproError, SolverError
from repro.io.serialization import plan_result_to_dict

#: Table reuse off: every dp plan is a direct solve.
NO_TABLES = TableCacheConfig(enabled=False)


def _canonical(result):
    payload = plan_result_to_dict(result)
    payload["elapsed_s"] = 0.0
    payload["cache_hit"] = False
    payload["tag"] = None
    return json.dumps(payload, sort_keys=True)


def _two_type(fast, slow, latency=1, scale=1):
    return MulticastSet.from_overheads(
        source=(2 * scale, 3 * scale),
        destinations=[(1 * scale, 1 * scale)] * fast
        + [(2 * scale, 3 * scale)] * slow,
        latency=latency * scale,
    )


def _sweep(top=6):
    return [
        PlanRequest(instance=_two_type(fast, slow), solver="dp")
        for fast in range(top + 1)
        for slow in range(top + 1)
        if fast + slow > 0
    ]


class TestGroupParity:
    def test_bit_identical_to_per_instance(self):
        requests = _sweep()
        grouped = Planner(cache_size=0).plan_batch(requests, group_solve=True)
        direct = Planner(cache_size=0, table_config=NO_TABLES).plan_batch(
            requests, group_solve=False
        )
        assert [_canonical(r) for r in grouped] == [_canonical(r) for r in direct]

    def test_one_table_answers_each_bucket(self):
        planner = Planner(cache_size=0)
        planner.plan_batch(_sweep(), group_solve=True)
        cache = planner.table_cache
        # two canonical type systems in the sweep: the two-type mixes and
        # the all-slow (source-type-only, k=1) instances
        assert cache.builds == 2
        assert cache.extensions == 0  # pre-sized to the element-wise max

    def test_power_of_two_scaled_sweeps_share_the_bucket(self):
        planner = Planner(cache_size=0)
        requests = [
            PlanRequest(instance=_two_type(fast, 5 - fast, scale=scale), solver="dp")
            for scale in (1, 2, 4)
            for fast in range(1, 5)
        ]
        planner.plan_batch(requests, group_solve=True)
        assert planner.table_cache.builds == 1

    def test_mixed_solvers_group_only_the_reusable(self):
        planner = Planner(cache_size=0)
        requests = [
            PlanRequest(instance=_two_type(3, 2), solver=solver)
            for solver in ("dp", "greedy", "greedy+reversal", "exact")
        ]
        batch = planner.plan_batch(requests, group_solve=True)
        assert [r.solver for r in batch] == ["dp", "greedy", "greedy+reversal", "exact"]
        assert planner.table_cache.builds == 1

    def test_parallel_jobs_match_serial(self):
        requests = _sweep(5)
        serial = Planner(cache_size=0).plan_batch(requests, group_solve=True)
        parallel = Planner(cache_size=0).plan_batch(
            requests, jobs=4, group_solve=True
        )
        assert [_canonical(r) for r in serial] == [_canonical(r) for r in parallel]

    def test_group_solve_without_table_reuse_is_batch_local(self):
        # a disabled table cache still amortizes within an explicit group batch
        planner = Planner(cache_size=0, table_config=NO_TABLES)
        requests = _sweep(4)
        batch = planner.plan_batch(requests, group_solve=True)
        direct = Planner(cache_size=0, table_config=NO_TABLES).plan_batch(
            requests, group_solve=False
        )
        assert [_canonical(r) for r in batch] == [_canonical(r) for r in direct]
        assert planner.table_cache is None


class TestGroupGuards:
    def test_oversized_requests_raise_identically(self):
        planner = Planner(cache_size=0)
        with pytest.raises(SolverError, match="state space too large"):
            planner.plan_batch(
                [PlanRequest(instance=_two_type(9, 9), solver="dp",
                             options={"max_states": 10})],
                group_solve=True,
            )

    def test_unknown_solver_raises_identically(self):
        planner = Planner(cache_size=0)
        with pytest.raises(SolverError, match="unknown solver"):
            planner.plan_batch(
                [PlanRequest(instance=_two_type(2, 2), solver="nope")],
                group_solve=True,
            )

    def test_on_error_skip_keeps_survivors(self):
        planner = Planner(cache_size=0)
        requests = [
            PlanRequest(instance=_two_type(2, 2), solver="dp", tag="ok"),
            PlanRequest(instance=_two_type(2, 2), solver="nope", tag="bad"),
            PlanRequest(instance=_two_type(1, 2), solver="dp", tag="ok2"),
        ]
        batch = planner.plan_batch(requests, on_error="skip", group_solve=True)
        assert [r.tag for r in batch] == ["ok", "ok2"]

    def test_group_solve_rejected_on_process_executor(self):
        planner = Planner(cache_size=0)
        with pytest.raises(ReproError, match="thread executor"):
            planner.plan_batch(
                [PlanRequest(instance=_two_type(2, 2), solver="dp")],
                executor="process",
                group_solve=True,
            )

    def test_default_group_solve_off_for_process_executor(self):
        planner = Planner(cache_size=0)
        batch = planner.plan_batch(
            [PlanRequest(instance=_two_type(2, 2), solver="dp")] * 2,
            jobs=2,
            executor="process",
        )
        assert len(batch) == 2


class TestPrewarm:
    def test_prewarm_builds_one_table_per_bucket(self):
        planner = Planner(cache_size=0)
        instances = [_two_type(f, 6 - f) for f in range(1, 6)]
        instances += [_two_type(f, 4 - f, latency=2) for f in range(1, 4)]
        warmed = planner.prewarm_tables(instances)
        assert warmed == 2
        cache = planner.table_cache
        assert cache.builds == 2
        # the sweep itself is then pure lookups: no builds, no extensions
        for mset in instances:
            planner.plan(mset, "dp")
        assert cache.builds == 2 and cache.extensions == 0
        assert cache.hits == len(instances)

    def test_prewarm_noop_without_table_reuse(self):
        planner = Planner(cache_size=0, table_config=NO_TABLES)
        assert planner.prewarm_tables([_two_type(2, 2)]) == 0


class TestCanonicalCacheHits:
    def test_equivalent_requests_hit_and_rebind(self):
        planner = Planner()
        first = planner.plan(_two_type(3, 2), "dp")
        renamed_scaled = _two_type(3, 2, scale=2)
        second = planner.plan(renamed_scaled, "dp")
        assert second.cache_hit
        info = planner.cache_info()
        assert info.hits == 1 and info.canonical_hits == 1
        direct = Planner(cache_size=0, table_config=NO_TABLES).plan(
            _two_type(3, 2, scale=2), "dp"
        )
        assert _canonical(second) == _canonical(direct)
        # the rebound schedule belongs to the requesting instance
        assert second.schedule.multicast == renamed_scaled
        assert second.value == 2 * first.value

    def test_bounds_recomputed_on_rebind(self):
        planner = Planner()
        request = PlanRequest(
            instance=_two_type(4, 3), solver="greedy", include_bounds=True
        )
        planner.plan(request)
        scaled = PlanRequest(
            instance=_two_type(4, 3, scale=4), solver="greedy", include_bounds=True
        )
        hit = planner.plan(scaled)
        assert hit.cache_hit and hit.bounds is not None
        direct = Planner(cache_size=0, table_config=NO_TABLES).plan(
            PlanRequest(
                instance=_two_type(4, 3, scale=4),
                solver="greedy",
                include_bounds=True,
            )
        )
        assert _canonical(hit) == _canonical(direct)
