"""Stream checks: same seed, same bytes; every frame fits the server's line.

Run from the root of a checkout::

    python -m pytest loadbench -q
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.api import PlanRequest
from repro.service import protocol
from repro.workloads.clusters import bounded_ratio_cluster, pareto_cluster
from repro.workloads.generator import multicast_from_cluster
from workloads import (
    HELD_OUT_SEED,
    MAX_FRAME_BYTES,
    SPECS,
    _systematic,
    _variant,
    build_stream,
)

WORKLOADS = sorted(SPECS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_stream(workload):
    first = build_stream(workload, 3, 6)
    again = build_stream(workload, 3, 6)
    assert first.frames_digest() == again.frames_digest()
    assert [op.frame for op in first.ops] == [op.frame for op in again.ops]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_gives_other_traffic(workload):
    assert build_stream(workload, 3, 6).frames_digest() != build_stream(
        workload, 4, 6
    ).frames_digest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_frame_fits_the_line_limit(workload):
    stream = build_stream(workload, HELD_OUT_SEED, 24)
    frames = [op.frame for op in (*stream.setup_ops, *stream.ops, *stream.replay_cycle(3))]
    assert max(len(frame) for frame in frames) < MAX_FRAME_BYTES
    assert all(frame.endswith(b"\n") and frame.count(b"\n") == 1 for frame in frames)


@pytest.mark.parametrize("cluster", [bounded_ratio_cluster, pareto_cluster])
@pytest.mark.parametrize("kind, shift", [("base", 0), ("rename", 0), ("rescale", -3)])
def test_largest_zipf_fleet_request_fits(cluster, kind, shift):
    # n = 1024 is the pool's cap: the longest names and float overheads
    # a zipf-fleet draw can carry must still fit one server line
    mset = multicast_from_cluster(cluster(1025, 5, prefix="w"), source="slowest")
    request = PlanRequest(
        instance=_variant(mset, kind, "r99999", shift),
        solver="greedy+reversal",
        include_bounds=True,
    )
    frame = protocol.encode(protocol.plan_message(request, id=99_999_999, client="fleet"))
    assert len(frame) < MAX_FRAME_BYTES


def test_systematic_draws_match_the_popularity_shares():
    cumulative = list(itertools.accumulate(1.0 / r for r in range(1, 101)))
    for seed in range(3):
        picks = _systematic(random.Random(seed), cumulative, 500)
        assert len(picks) == 500
        for slot in range(100):
            share = (1.0 / (slot + 1)) / cumulative[-1]
            assert abs(picks.count(slot) - 500 * share) < 1.0


def test_replay_cycles_rename_ids_and_sessions():
    stream = build_stream("churn-mix", 1, 4)
    cycle = stream.replay_cycle(2)
    ids = {op.id for op in (*stream.setup_ops, *stream.ops)}
    assert not ids & {op.id for op in cycle}
    for op in cycle:
        message = protocol.decode(op.frame)
        assert message["id"] == op.id
        if op.session is not None:
            assert message["session"] == op.session
