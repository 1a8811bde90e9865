"""``TableCacheConfig``: the table-cache policy surface.

One frozen dataclass carries the three table knobs callers set (on/off,
resident-state budget, snapshot directory).  Snapshot persistence rides
the same config: write-through saves on build, fail-closed mmap attach
on miss, warm restarts with zero rebuilds, and a snapshot is never
replaced by a table that does not span it.
"""

import dataclasses

import pytest

from repro.api import Planner
from repro.api.tables import (
    DEFAULT_TABLE_BUDGET,
    OptimalTableCache,
    TableCacheConfig,
    snapshot_filename,
)
from repro.core.dp import DEFAULT_MAX_STATES, _DPCore, box_states
from repro.core.dp_table import OptimalTable
from repro.core.dp_vector import _VectorCore, solve_dp_backend
from repro.core.multicast import MulticastSet
from repro.exceptions import ReproError, SolverError


def _two_type(fast, slow, latency=1):
    return MulticastSet.from_overheads(
        source=(2, 3),
        destinations=[(1, 1)] * fast + [(2, 3)] * slow,
        latency=latency,
    )


class TestConfigSurface:
    def test_defaults(self):
        config = TableCacheConfig()
        assert config.enabled
        assert config.max_total_states == DEFAULT_TABLE_BUDGET
        assert config.snapshot_dir is None

    def test_validate_rejects_bad_values(self):
        with pytest.raises(ReproError, match="max_total_states"):
            TableCacheConfig(max_total_states=0).validate()

    def test_build_cache(self, tmp_path):
        assert TableCacheConfig(enabled=False).build_cache() is None
        cache = TableCacheConfig(
            max_total_states=1234, snapshot_dir=tmp_path
        ).build_cache()
        assert isinstance(cache, OptimalTableCache)
        assert cache.stats()["max_total_states"] == 1234
        assert cache.snapshot_dir == tmp_path

    def test_exactly_the_three_knobs_callers_set(self):
        names = [f.name for f in dataclasses.fields(TableCacheConfig)]
        assert names == ["enabled", "max_total_states", "snapshot_dir"]

    def test_config_is_frozen(self, tmp_path):
        # one value is shared by the planner, its service and the process
        # workers: deriving a variant must never mutate the original
        config = TableCacheConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.snapshot_dir = tmp_path
        derived = dataclasses.replace(config, snapshot_dir=tmp_path)
        assert derived.snapshot_dir == tmp_path
        assert config.snapshot_dir is None


class TestPlannerIntegration:
    def test_planner_accepts_config(self):
        planner = Planner(table_config=TableCacheConfig(max_total_states=777))
        assert planner.table_config.max_total_states == 777
        assert planner.table_cache.stats()["max_total_states"] == 777

    def test_disabled_config_means_no_cache(self):
        planner = Planner(table_config=TableCacheConfig(enabled=False))
        assert planner.table_cache is None

    @pytest.mark.parametrize(
        "kwargs",
        [{"reuse_tables": False}, {"table_cache_states": 4321}],
        ids=["reuse_tables", "table_cache_states"],
    )
    def test_table_knobs_outside_the_config_rejected(self, kwargs):
        with pytest.raises(TypeError):
            Planner(**kwargs)

    @pytest.mark.parametrize(
        "fast,slow,core",
        [
            (0, 30, _DPCore),  # k = 1: the closed-form scalar scan
            (3, 3, _DPCore),  # 2 * 4 * 4 states: under AUTO_VECTOR_MIN_STATES
            (40, 40, _VectorCore),  # 2 * 41 * 41 states: the slab engine
        ],
    )
    def test_tables_build_with_the_auto_backend(self, fast, slow, core):
        planner = Planner(cache_size=0)
        mset = _two_type(fast, slow)
        result = planner.plan(mset, "dp")
        canonical = mset.canonical_form().mset
        table = planner.table_cache.acquire(canonical)
        assert type(table._core) is core
        assert result.schedule == solve_dp_backend(mset, backend="scalar").schedule

    @pytest.mark.parametrize("backend", ["scalar", "vector", "auto"])
    def test_backend_option_answers_from_the_table(self, backend):
        # engines are bit-identical, so a resident table serves every
        # backend choice without a rebuild
        planner = Planner(cache_size=0)
        mset = _two_type(4, 3)
        planner.plan(mset, "dp")
        result = planner.plan(mset, f"dp(backend={backend})")
        stats = planner.table_cache.stats()
        assert (stats["builds"], stats["hits"]) == (1, 1)
        direct = solve_dp_backend(mset, backend=backend)
        assert result.value == direct.value
        assert result.schedule == direct.schedule

    def test_unknown_backend_raises_on_the_table_path(self):
        planner = Planner(cache_size=0)
        planner.plan(_two_type(4, 3), "dp")
        with pytest.raises(SolverError, match="unknown dp backend"):
            planner.plan(_two_type(4, 3), "dp(backend=bogus)")

    def test_per_table_cap_is_the_dp_default(self):
        # no table past DEFAULT_MAX_STATES is ever built, whatever the
        # total budget: the request is left to the direct path
        cache = OptimalTableCache(max_total_states=4 * DEFAULT_MAX_STATES)
        side = 3200  # 2 * 3201 * 3201 states
        assert box_states(2, (side, side)) > DEFAULT_MAX_STATES
        mset = _two_type(1, 1)
        assert cache.acquire_box(mset.type_keys(), 1, (side, side)) is None
        assert (cache.builds, len(cache)) == (0, 0)


class TestSnapshotPersistence:
    def test_write_through_on_build(self, tmp_path):
        planner = Planner(
            cache_size=0, table_config=TableCacheConfig(snapshot_dir=tmp_path)
        )
        planner.plan(_two_type(4, 3), "dp")
        files = list(tmp_path.glob("table-*.snap"))
        assert len(files) == 1
        stats = planner.table_cache.stats()
        assert stats["snapshot_saves"] == 1
        assert stats["attaches"] == 0

    def test_warm_restart_attaches_instead_of_building(self, tmp_path):
        config = TableCacheConfig(snapshot_dir=tmp_path)
        first = Planner(cache_size=0, table_config=config)
        before = first.plan(_two_type(4, 3), "dp")
        second = Planner(cache_size=0, table_config=config)
        after = second.plan(_two_type(4, 3), "dp")
        stats = second.table_cache.stats()
        assert stats["attaches"] == 1
        assert stats["builds"] == 0
        assert after.value == before.value
        assert after.schedule == before.schedule

    def test_growth_past_snapshot_saves_through_again(self, tmp_path):
        config = TableCacheConfig(snapshot_dir=tmp_path)
        planner = Planner(cache_size=0, table_config=config)
        planner.plan(_two_type(3, 2), "dp")
        planner.plan(_two_type(6, 5), "dp")  # extends the attached table
        stats = planner.table_cache.stats()
        assert stats["snapshot_saves"] == 2
        warm = Planner(cache_size=0, table_config=config)
        warm.plan(_two_type(6, 5), "dp")
        assert warm.table_cache.stats()["builds"] == 0

    def test_corrupt_snapshot_is_rejected_and_removed(self, tmp_path):
        config = TableCacheConfig(snapshot_dir=tmp_path)
        Planner(cache_size=0, table_config=config).plan(_two_type(4, 3), "dp")
        (snap,) = tmp_path.glob("table-*.snap")
        data = bytearray(snap.read_bytes())
        data[-1] ^= 0xFF
        snap.write_bytes(bytes(data))
        planner = Planner(cache_size=0, table_config=config)
        result = planner.plan(_two_type(4, 3), "dp")
        stats = planner.table_cache.stats()
        assert stats["snapshot_rejects"] == 1
        assert stats["builds"] == 1  # fell back to a clean rebuild
        # the corrupt file was unlinked, then write-through replaced it
        # with a clean one at the same content-addressed path
        OptimalTable.load_snapshot(snap)
        fresh = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False)).plan(
            _two_type(4, 3), "dp"
        )
        assert result.value == fresh.value

    def test_budget_refused_attach_never_shrinks_the_snapshot(self, tmp_path):
        # a 2 x 21 x 21 = 882-entry table lands on disk
        OptimalTableCache(snapshot_dir=tmp_path).acquire(_two_type(20, 20))
        (snap,) = tmp_path.glob("table-*.snap")
        saved = snap.read_bytes()
        # a fresh cache may not hold that table under a 100-state budget:
        # the request is left to a direct solve, the file is untouched
        tight = OptimalTableCache(snapshot_dir=tmp_path)
        small = _two_type(2, 2)
        assert (
            tight.acquire_box(small.type_keys(), small.latency, (2, 2), max_states=100)
            is None
        )
        assert snap.read_bytes() == saved
        stats = tight.stats()
        assert (stats["builds"], stats["snapshot_saves"], stats["tables"]) == (0, 0, 0)
        # so the next default acquire attaches the full table
        assert tight.acquire(_two_type(20, 20)).entries == 882
        stats = tight.stats()
        assert (stats["attaches"], stats["builds"], stats["extensions"]) == (1, 0, 0)

    def test_no_snapshot_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        planner = Planner(cache_size=0)
        planner.plan(_two_type(2, 2), "dp")
        planner.plan(_two_type(5, 4), "dp")  # an extension, too
        stats = planner.table_cache.stats()
        assert (stats["builds"], stats["extensions"]) == (1, 1)
        assert stats["snapshot_saves"] == 0
        assert list(tmp_path.iterdir()) == []

    def test_snapshot_dir_is_created_on_first_save(self, tmp_path):
        target = tmp_path / "not" / "yet" / "there"
        planner = Planner(
            cache_size=0, table_config=TableCacheConfig(snapshot_dir=target)
        )
        planner.plan(_two_type(4, 3), "dp")
        assert len(list(target.glob("table-*.snap"))) == 1

    def test_budget_refused_growth_keeps_the_snapshot(self, tmp_path):
        # a 2 x 11 x 2 = 44-entry table lands on disk
        OptimalTableCache(snapshot_dir=tmp_path).acquire(_two_type(10, 1))
        (snap,) = tmp_path.glob("table-*.snap")
        saved = snap.read_bytes()
        # the file attaches, but spanning (1, 10) as well needs a
        # 2 x 11 x 11 box: over a 50-state budget, so solve directly
        tight = OptimalTableCache(snapshot_dir=tmp_path)
        other = _two_type(1, 10)
        assert tight.acquire(other, 50) is None
        assert snap.read_bytes() == saved
        stats = tight.stats()
        assert (stats["attaches"], stats["builds"], stats["tables"]) == (0, 0, 0)

    def test_attached_table_grows_to_span_both_boxes(self, tmp_path):
        OptimalTableCache(snapshot_dir=tmp_path).acquire(_two_type(10, 1))
        (snap,) = tmp_path.glob("table-*.snap")
        cache = OptimalTableCache(snapshot_dir=tmp_path)
        table = cache.acquire(_two_type(1, 10))
        assert table.spec.max_counts == (10, 10)
        stats = cache.stats()
        assert (stats["attaches"], stats["extensions"], stats["builds"]) == (1, 1, 0)
        # the file now holds the union box, never less than before
        assert OptimalTable.load_snapshot(snap).spec.max_counts == (10, 10)

    def test_another_cache_never_shrinks_the_snapshot(self, tmp_path):
        # two caches over one directory, as two worker processes would be
        first = OptimalTableCache(snapshot_dir=tmp_path)
        first.acquire(_two_type(2, 2))
        second = OptimalTableCache(snapshot_dir=tmp_path)
        assert second.acquire(_two_type(20, 20)).entries == 882
        (snap,) = tmp_path.glob("table-*.snap")
        grown = snap.read_bytes()
        # the first cache outgrows its own (2, 2) table, not the file's
        assert first.acquire(_two_type(3, 3)).spec.max_counts == (3, 3)
        assert first.stats()["extensions"] == 1
        assert snap.read_bytes() == grown
        assert first.stats()["snapshot_saves"] == 1  # only the first build
        fresh = OptimalTableCache(snapshot_dir=tmp_path)
        assert fresh.acquire(_two_type(20, 20)).entries == 882
        stats = fresh.stats()
        assert (stats["attaches"], stats["builds"], stats["extensions"]) == (1, 0, 0)

    def test_snapshot_filename_is_content_addressed(self):
        a = snapshot_filename(((1, 1), (2, 3)), 1.0)
        b = snapshot_filename(((1, 1), (2, 3)), 1.0)
        c = snapshot_filename(((1, 1), (2, 3)), 2.0)
        assert a == b
        assert a != c
        assert a.startswith("table-") and a.endswith(".snap")
