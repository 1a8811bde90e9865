"""Shared fixtures for the benchmark harness.

Every ``bench_*.py`` regenerates one experiment of DESIGN.md's index (E1..E9):
the timed kernel is the experiment's core operation and the paper-relevant
measurements are attached as ``benchmark.extra_info`` so a benchmark run
doubles as a results table.
"""

import pytest

from repro.api import Planner
from repro.api.tables import TableCacheConfig
from repro.core.multicast import MulticastSet

collect_ignore: list = []


def pytest_collection_modifyitems(items):
    # stable ordering: by file then name, so report rows group by experiment
    items.sort(key=lambda item: (str(item.fspath), item.name))


@pytest.fixture
def fig1_mset() -> MulticastSet:
    return MulticastSet.from_overheads(
        source=(2, 3),
        destinations=[(1, 1), (1, 1), (1, 1), (2, 3)],
        latency=1,
    )


@pytest.fixture
def planner() -> Planner:
    """Cache- and table-reuse-disabled planner: timed kernels must
    measure real solves, not LRU hits or optimal-table lookups."""
    return Planner(cache_size=0, table_config=TableCacheConfig(enabled=False))
