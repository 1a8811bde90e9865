"""repro.faults: deterministic plans, hook sites, durability effects."""

import json

import pytest

from repro import faults
from repro.api import PlanRequest, instance_fingerprint
from repro.api.planner import _plan_standalone
from repro.api.tables import TableCacheConfig
from repro.exceptions import ReproError, ServiceRetryableError
from repro.faults import FaultPlan, FaultSpec
from repro.io.segments import list_segments
from repro.service import PlanStore
from repro.service.shard import ShardRouter


class TestFaultSpecValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ReproError, match="unknown fault site"):
            FaultSpec("client.drop_everything")

    def test_rate_bounds(self):
        with pytest.raises(ReproError, match="rate"):
            FaultSpec("solver.error", rate=1.5)
        with pytest.raises(ReproError, match="rate"):
            FaultSpec("solver.error", rate=-0.1)

    def test_count_after_delay_bounds(self):
        with pytest.raises(ReproError, match="count"):
            FaultSpec("solver.error", count=0)
        with pytest.raises(ReproError, match="after"):
            FaultSpec("solver.error", after=-1)
        with pytest.raises(ReproError, match="delay_s"):
            FaultSpec("solver.delay", delay_s=-0.5)

    def test_plan_rejects_duplicates_and_non_specs(self):
        spec = FaultSpec("solver.error")
        with pytest.raises(ReproError, match="duplicate"):
            FaultPlan([spec, FaultSpec("solver.error", rate=0.5)])
        with pytest.raises(ReproError, match="must be FaultSpec"):
            FaultPlan(["solver.error"])


class TestFaultPlanStream:
    def test_count_and_after_semantics(self):
        plan = FaultPlan([FaultSpec("solver.error", count=2, after=1)])
        decisions = [plan.fire("solver.error") is not None for _ in range(6)]
        # first consultation skipped, next two fire, cap reached after that
        assert decisions == [False, True, True, False, False, False]
        assert plan.fired() == {"solver.error": 2}
        assert plan.total_fired() == 2

    def test_unknown_or_unplanned_site_never_fires(self):
        plan = FaultPlan([FaultSpec("solver.error")])
        assert plan.fire("worker.kill") is None
        assert plan.fired() == {"solver.error": 0}

    def test_seeded_stream_replays_after_reset(self):
        plan = FaultPlan([FaultSpec("solver.error", rate=0.4, count=50)], seed=7)
        first = [plan.fire("solver.error") is not None for _ in range(100)]
        plan.reset()
        second = [plan.fire("solver.error") is not None for _ in range(100)]
        assert first == second
        assert any(first) and not all(first)  # probabilistic, not degenerate

    def test_distinct_seeds_give_distinct_streams(self):
        def stream(seed):
            plan = FaultPlan([FaultSpec("solver.error", rate=0.5)], seed=seed)
            return [plan.fire("solver.error") is not None for _ in range(64)]

        assert stream(1) != stream(2)


class TestInjection:
    def test_disabled_by_default(self):
        assert faults.ACTIVE is None
        assert faults.fire("solver.error") is None

    def test_inject_installs_and_restores(self):
        plan = FaultPlan([FaultSpec("solver.error")])
        with faults.inject(plan) as active:
            assert active is plan
            assert faults.ACTIVE is plan
            assert faults.fire("solver.error") is not None
        assert faults.ACTIVE is None

    def test_inject_restores_on_exception(self):
        plan = FaultPlan([FaultSpec("solver.error")])
        with pytest.raises(RuntimeError):
            with faults.inject(plan):
                raise RuntimeError("boom")
        assert faults.ACTIVE is None

    def test_plans_do_not_nest(self):
        plan = FaultPlan([FaultSpec("solver.error")], name="outer")
        with faults.inject(plan):
            with pytest.raises(ReproError, match="do not nest"):
                with faults.inject(FaultPlan([FaultSpec("worker.kill")])):
                    pass  # pragma: no cover
        assert faults.ACTIVE is None


class TestFaultEffects:
    def test_corrupt_file_flips_midfile_bytes(self, tmp_path):
        target = tmp_path / "blob.bin"
        original = bytes(range(64))
        target.write_bytes(original)
        faults.corrupt_file(target)
        tampered = target.read_bytes()
        assert len(tampered) == len(original)
        assert tampered != original
        assert tampered[:16] == original[:16]  # header untouched

    def test_torn_append_leaves_partial_line(self, tmp_path):
        target = tmp_path / "segment.jsonl"
        target.write_text('{"ok": 1}\n')
        faults.torn_append(target, '{"ok": 2}\n')
        text = target.read_text()
        assert not text.endswith("\n")
        assert text.startswith('{"ok": 1}\n')
        with pytest.raises(ReproError, match="fraction"):
            faults.torn_append(target, "x", fraction=1.5)


def _solved(mset, solver="greedy"):
    request = PlanRequest(instance=mset, solver=solver)
    result = _plan_standalone(request)
    key = (instance_fingerprint(mset), result.solver, "{}", False)
    return key, result


class TestStoreTornAppendSite:
    def test_torn_append_surfaces_retryable_and_store_recovers(
        self, tmp_path, fig1_mset, homogeneous_mset
    ):
        store = PlanStore(tmp_path)
        key1, result1 = _solved(fig1_mset)
        key2, result2 = _solved(homogeneous_mset)
        plan = FaultPlan([FaultSpec("store.torn_append", count=1)])
        with faults.inject(plan):
            with pytest.raises(ServiceRetryableError, match="torn mid-write"):
                store.put(key1, result1)
            assert store.get(key1) is None  # failed append not indexed
            [segment] = list_segments(tmp_path)
            assert not segment.read_text().endswith("\n")  # torn residue
            # the next append repairs the torn tail before writing
            store.put(key2, result2)
        lines = segment.read_text().splitlines()
        assert all(json.loads(line) for line in lines)
        assert store.get(key2).schedule == result2.schedule
        # a restarted store loads clean and verifies
        reopened = PlanStore(tmp_path)
        assert reopened.verify() >= 1
        assert reopened.get(key2).value == result2.value

    def test_torn_tail_alone_repairs_on_reload(self, tmp_path, fig1_mset):
        store = PlanStore(tmp_path)
        key, result = _solved(fig1_mset)
        with faults.inject(FaultPlan([FaultSpec("store.torn_append", count=1)])):
            with pytest.raises(ServiceRetryableError):
                store.put(key, result)
        # crash here: no further appends — a fresh load must still verify
        reopened = PlanStore(tmp_path)
        reopened.verify()
        assert reopened.get(key) is None


class TestSnapshotCorruptSite:
    def test_corrupted_snapshot_fails_closed_and_rebuilds(self, tmp_path):
        config = TableCacheConfig(snapshot_dir=tmp_path)
        tables = config.build_cache()
        router = ShardRouter(1, mode="thread", tables=tables)
        try:
            request = PlanRequest(
                instance=(mset := _fig1_like()), solver="dp"
            )
            with faults.inject(FaultPlan([FaultSpec("snapshot.corrupt", count=1)])):
                tampered = router.solve_sync(request)
            assert tables.stats()["snapshot_saves"] == 1
        finally:
            router.shutdown()
        # a restarted router must reject the tampered snapshot and rebuild
        fresh_tables = config.build_cache()
        fresh = ShardRouter(1, mode="thread", tables=fresh_tables)
        try:
            again = fresh.solve_sync(request)
            stats = fresh_tables.stats()
            assert stats["snapshot_rejects"] == 1
            assert stats["attaches"] == 0
            assert stats["builds"] == 1
            assert again.value == tampered.value
            assert again.schedule == tampered.schedule
        finally:
            fresh.shutdown()


def _fig1_like():
    from repro.core.multicast import MulticastSet

    return MulticastSet.from_overheads(
        source=(2, 3), destinations=[(1, 1)] * 3 + [(2, 3)], latency=1
    )
