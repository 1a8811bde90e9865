"""Table policy flows into the service: one cache, shards, snapshots, pins.

A thread- or inline-mode service process holds exactly one table cache,
its planner's: sessions and shard misses on one network share a single
build, and a snapshot directory is attached at most once.  The router
solves through the cache its owner hands it and never builds one;
process shards are initialized with the planner's config, restarts
warm-attach the snapshot directory instead of rebuilding, and sessions
always pin their network's table.
"""

import pytest

from repro.api import Planner, PlanRequest
from repro.api.tables import OptimalTableCache, TableCacheConfig
from repro.core.dp import solve_dp
from repro.core.dp_table import OptimalTable
from repro.core.multicast import MulticastSet
from repro.exceptions import ReproError
from repro.service.server import PlanningService
from repro.service.sessions import SessionManager
from repro.service.shard import ShardRouter


def _mset(fast=4, slow=3):
    return MulticastSet.from_overheads(
        source=(2, 3),
        destinations=[(1, 1)] * fast + [(2, 3)] * slow,
        latency=1,
    )


class TestRouterTableConfig:
    def test_thread_router_solves_through_the_handed_cache(self, tmp_path):
        tables = OptimalTableCache(snapshot_dir=tmp_path)
        router = ShardRouter(2, mode="thread", tables=tables)
        try:
            result = router.solve_sync(PlanRequest(instance=_mset(), solver="dp"))
            stats = tables.stats()
            assert stats["builds"] == 1
            assert stats["snapshot_saves"] == 1
            assert list(tmp_path.glob("table-*.snap"))
        finally:
            router.shutdown()
        # a restarted router over a fresh cache attaches the snapshot
        fresh_tables = OptimalTableCache(snapshot_dir=tmp_path)
        fresh = ShardRouter(2, mode="thread", tables=fresh_tables)
        try:
            again = fresh.solve_sync(PlanRequest(instance=_mset(), solver="dp"))
            stats = fresh_tables.stats()
            assert stats["attaches"] == 1
            assert stats["builds"] == 0
            assert again.value == result.value
            assert again.schedule == result.schedule
        finally:
            fresh.shutdown()

    def test_router_builds_no_cache_of_its_own(self, tmp_path, monkeypatch):
        # the config is process-worker policy; a thread router handed no
        # cache solves directly and never touches the snapshot directory
        built = []
        monkeypatch.setattr(OptimalTable, "build", lambda self: built.append(self))
        router = ShardRouter(
            1, mode="inline", table_config=TableCacheConfig(snapshot_dir=tmp_path)
        )
        result = router.solve_sync(PlanRequest(instance=_mset(), solver="dp"))
        assert result.value == solve_dp(_mset()).value
        assert built == []
        assert not list(tmp_path.iterdir())

    def test_invalid_config_rejected_at_construction(self):
        with pytest.raises(ReproError, match="max_total_states"):
            ShardRouter(1, table_config=TableCacheConfig(max_total_states=0))

    def test_process_mode_workers_apply_the_config(self, tmp_path):
        config = TableCacheConfig(snapshot_dir=tmp_path)
        router = ShardRouter(1, mode="process", table_config=config)
        try:
            result = router.solve_sync(PlanRequest(instance=_mset(), solver="dp"))
            assert result.value > 0
            # the worker process wrote through to the shared directory
            assert list(tmp_path.glob("table-*.snap"))
        finally:
            router.shutdown()


class TestServiceTableConfig:
    def test_service_builds_planner_with_config(self, tmp_path):
        config = TableCacheConfig(snapshot_dir=tmp_path)
        with PlanningService(worker_mode="thread", table_config=config) as service:
            assert service.planner.table_config.snapshot_dir == tmp_path
            result, tier = service.submit_sync(
                PlanRequest(instance=_mset(), solver="dp")
            )
            assert tier == "solve"
        assert list(tmp_path.glob("table-*.snap"))
        # restart: the shard worker warm-attaches
        with PlanningService(worker_mode="thread", table_config=config) as warm:
            again, _tier = warm.submit_sync(
                PlanRequest(instance=_mset(), solver="dp")
            )
            stats = warm.planner.table_cache.stats()
            assert stats["attaches"] == 1
            assert stats["builds"] == 0
            assert again.value == result.value

    def test_supplied_planner_carries_the_table_policy(self, tmp_path):
        planner = Planner(table_config=TableCacheConfig(snapshot_dir=tmp_path))
        service = PlanningService(planner=planner, worker_mode="process")
        assert service.planner is planner
        assert service.router.table_config is planner.table_config

    def test_supplied_planner_and_table_config_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="not both"):
            PlanningService(
                planner=Planner(),
                table_config=TableCacheConfig(snapshot_dir=tmp_path),
            )


class TestOneCachePerProcess:
    """Regression: sessions and shard misses share the planner's cache.

    Every table build and snapshot attach in the process is counted, not
    just the planner cache's own counters, so a second cache anywhere in
    the process fails the test.
    """

    @pytest.mark.parametrize("mode", ["thread", "inline"])
    @pytest.mark.parametrize("snapshots", [False, True])
    def test_session_and_plan_miss_share_one_table(self, tmp_path, monkeypatch, mode, snapshots):
        builds, attaches = [], []
        build, load = OptimalTable.build, OptimalTable.load_snapshot.__func__

        def counted_build(self):
            if not self._built:  # save_snapshot re-enters build() as a no-op
                builds.append(self)
            return build(self)

        monkeypatch.setattr(OptimalTable, "build", counted_build)
        monkeypatch.setattr(
            OptimalTable,
            "load_snapshot",
            classmethod(lambda cls, path: attaches.append(1) or load(cls, path)),
        )
        config = TableCacheConfig(snapshot_dir=tmp_path if snapshots else None)
        with PlanningService(num_shards=2, worker_mode=mode, table_config=config) as service:
            service.open_session_sync(PlanRequest(instance=_mset(4, 3), solver="dp"))
            # same network, a destination mix the session's table spans
            _result, tier = service.submit_sync(PlanRequest(instance=_mset(2, 3), solver="dp"))
            assert tier == "solve"
            stats = service.planner.table_cache.stats()
        assert (len(builds), len(attaches)) == (1, 0)
        assert (stats["builds"], stats["attaches"], stats["hits"]) == (1, 0, 1)


class TestSessionPinning:
    def test_default_config_still_pins(self):
        planner = Planner()
        manager = SessionManager(planner)
        opened = manager.open(PlanRequest(instance=_mset(), solver="dp"))
        try:
            session = manager.session(opened.session_id)
            assert session.pinned_box is not None
            assert planner.table_cache.stats()["pins"] == 1
        finally:
            manager.close(opened.session_id)

    def test_a_warm_attached_table_is_pinned_too(self, tmp_path):
        # a session opened over a warm snapshot directory pins the
        # attached table, not a rebuilt one, and closing releases it
        config = TableCacheConfig(snapshot_dir=tmp_path)
        Planner(table_config=config).plan(_mset(6, 5), "dp")
        planner = Planner(table_config=config)
        manager = SessionManager(planner)
        opened = manager.open(PlanRequest(instance=_mset(), solver="dp"))
        stats = planner.table_cache.stats()
        assert (stats["attaches"], stats["builds"], stats["pins"]) == (1, 0, 1)
        assert manager.session(opened.session_id).pinned_box is not None
        manager.close(opened.session_id)
        assert planner.table_cache.stats()["pins"] == 0
