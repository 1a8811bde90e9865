"""Group sessions: sequencing, repair identity, pinning, crash replay.

The session protocol's contract, end to end: out-of-order deltas are
rejected fail-closed with session state untouched, exact duplicates are
answered idempotently, a reconnecting client resumes from the last
acknowledged update, cache eviction pressure never invalidates a
session's pinned table mid-repair, and a ``kill -9``'d service replays a
session's plans bit-identically from its :class:`PlanStore` on restart.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import Planner, PlanRequest
from repro.api.tables import TableCacheConfig
from repro.conformance.invariants import canonical_result_payload
from repro.core.multicast import MulticastSet
from repro.core.node import Node
from repro.core.repair import MembershipDelta, apply_delta, churn_chain
from repro.exceptions import ServiceError
from repro.service import (
    InProcessClient,
    PlanningService,
    ServiceClient,
    SessionManager,
)


@pytest.fixture
def tcp_service(tmp_path):
    service = PlanningService(
        store_path=tmp_path / "planstore", num_shards=2, worker_mode="thread"
    )
    address = service.start_background(tcp=True)
    try:
        yield service, address
    finally:
        service.stop()


def _base(latency=1):
    return MulticastSet.from_overheads(
        source=(2, 3),
        destinations=[(1, 1), (1, 1), (2, 3)],
        latency=latency,
    )


def _join(seq, name):
    return MembershipDelta(seq=seq, joins=(Node(name, 1, 1),))


def _cold(mset, solver="dp"):
    return Planner(cache_size=0, table_config=TableCacheConfig(enabled=False)).plan(
        PlanRequest(instance=mset, solver=solver)
    )


class TestSequencing:
    """Fail-closed ordering on the SessionManager itself."""

    def test_open_matches_cold_plan(self):
        manager = SessionManager(Planner(cache_size=0))
        opened = manager.open(PlanRequest(instance=_base(), solver="dp"))
        assert opened.seq == 0
        assert canonical_result_payload(opened.result) == canonical_result_payload(
            _cold(_base())
        )
        manager.close(opened.session_id)

    def test_out_of_order_rejected_and_state_intact(self):
        manager = SessionManager(Planner(cache_size=0))
        opened = manager.open(PlanRequest(instance=_base(), solver="dp"))
        sid = opened.session_id
        with pytest.raises(ServiceError, match="out-of-order delta seq 2"):
            manager.apply(sid, _join(2, "j1"))
        # the session is exactly where it was: seq 1 still the next step
        session = manager.session(sid)
        assert session.last_seq == 0
        assert session.request.instance == _base()
        update = manager.apply(sid, _join(1, "j1"))
        assert update.seq == 1
        assert manager.metrics.get("session_rejects") == 1
        manager.close(sid)

    def test_exact_duplicate_is_idempotent(self):
        manager = SessionManager(Planner(cache_size=0))
        opened = manager.open(PlanRequest(instance=_base(), solver="dp"))
        sid = opened.session_id
        delta = _join(1, "j1")
        first = manager.apply(sid, delta)
        replay = manager.apply(sid, delta)
        assert replay is first  # the stored update, not a re-plan
        assert manager.metrics.get("session_duplicates") == 1
        assert manager.session(sid).last_seq == 1
        manager.close(sid)

    def test_duplicate_seq_with_different_content_rejected(self):
        manager = SessionManager(Planner(cache_size=0))
        opened = manager.open(PlanRequest(instance=_base(), solver="dp"))
        sid = opened.session_id
        manager.apply(sid, _join(1, "j1"))
        with pytest.raises(ServiceError, match="out-of-order delta seq 1"):
            manager.apply(sid, _join(1, "j2"))  # same seq, different delta
        assert manager.session(sid).last_seq == 1
        manager.close(sid)

    def test_rejected_content_leaves_state_intact(self):
        manager = SessionManager(Planner(cache_size=0))
        opened = manager.open(PlanRequest(instance=_base(), solver="dp"))
        sid = opened.session_id
        bad = MembershipDelta(seq=1, leaves=("nobody",))
        with pytest.raises(ServiceError, match="rejected delta 1"):
            manager.apply(sid, bad)
        session = manager.session(sid)
        assert session.last_seq == 0 and session.request.instance == _base()
        assert manager.apply(sid, _join(1, "j1")).seq == 1  # seq 1 still free
        manager.close(sid)

    def test_unknown_and_closed_sessions_error(self):
        manager = SessionManager(Planner(cache_size=0))
        with pytest.raises(ServiceError, match="unknown session"):
            manager.apply("s999", _join(1, "j1"))
        opened = manager.open(PlanRequest(instance=_base(), solver="dp"))
        manager.close(opened.session_id)
        with pytest.raises(ServiceError, match="unknown session"):
            manager.resume(opened.session_id)

    def test_resume_replays_last_update(self):
        manager = SessionManager(Planner(cache_size=0))
        opened = manager.open(PlanRequest(instance=_base(), solver="dp"))
        sid = opened.session_id
        assert manager.resume(sid) is opened
        applied = manager.apply(sid, _join(1, "j1"))
        assert manager.resume(sid) is applied
        assert manager.metrics.get("session_resumes") == 2
        manager.close(sid)

    def test_close_releases_the_pin(self):
        manager = SessionManager(Planner(cache_size=0))
        opened = manager.open(PlanRequest(instance=_base(), solver="dp"))
        tables = manager.planner.table_cache
        assert tables.stats()["pins"] == 1
        manager.close(opened.session_id)
        assert tables.stats()["pins"] == 0


class TestEvictionDuringRepair:
    """Regression: cache-budget eviction must not invalidate a held table."""

    def test_pinned_session_table_survives_unrelated_pressure(self):
        # budget 60: the session's 18-state table plus any one unrelated
        # 50-state table overflows it, so without the pin the unrelated
        # traffic would evict the session's network mid-stream
        planner = Planner(
            cache_size=0, table_config=TableCacheConfig(max_total_states=60)
        )
        manager = SessionManager(planner)
        opened = manager.open(PlanRequest(instance=_base(), solver="dp"))
        sid = opened.session_id
        cache = planner.table_cache
        assert cache.builds == 1

        def pressure(latency):
            return MulticastSet.from_overheads(
                source=(2, 3),
                destinations=[(1, 1)] * 4 + [(2, 3)] * 4,
                latency=latency,
            )

        for latency in (3, 4):  # two distinct 50-state networks
            planner.plan(PlanRequest(instance=pressure(latency), solver="dp"))
        assert cache.builds == 3 and cache.evictions >= 1

        mset = _base()
        for seq, name in ((1, "j1"), (2, "j2")):
            delta = _join(seq, name)
            mset = apply_delta(mset, delta)
            update = manager.apply(sid, delta)
            assert update.repaired, "repair fell back to a cold solve"
            assert canonical_result_payload(update.result) == (
                canonical_result_payload(_cold(mset))
            )
        # the session's table was never rebuilt: joins only extended it
        assert cache.builds == 3
        manager.close(sid)
        assert cache.stats()["pins"] == 0

    def test_unpinned_traffic_still_evicts_normally(self):
        planner = Planner(
            cache_size=0, table_config=TableCacheConfig(max_total_states=60)
        )
        for latency in (1, 2):
            mset = MulticastSet.from_overheads(
                source=(2, 3),
                destinations=[(1, 1)] * 4 + [(2, 3)] * 4,
                latency=latency,
            )
            planner.plan(PlanRequest(instance=mset, solver="dp"))
        assert planner.table_cache.evictions >= 1


class TestInProcessSessions:
    def test_full_session_flow(self, tmp_path, fig1_mset):
        service = PlanningService(
            store_path=tmp_path / "planstore", num_shards=2, worker_mode="thread"
        )
        service.start_background()
        try:
            client = InProcessClient(service, client_id="churn-test")
            opened = client.open_session(fig1_mset, solver="dp")
            assert opened.seq == 0
            mset = fig1_mset
            for delta in churn_chain(fig1_mset, seed=3, length=3):
                mset = apply_delta(mset, delta)
                update = client.send_delta(opened.session_id, delta)
                assert update.seq == delta.seq
                assert canonical_result_payload(update.result) == (
                    canonical_result_payload(_cold(mset))
                )
            resumed = client.resume_session(opened.session_id)
            assert resumed.seq == 3
            client.close_session(opened.session_id)
            with pytest.raises(ServiceError, match="unknown session"):
                client.resume_session(opened.session_id)
            metrics = client.metrics()
            assert metrics["sessions_opened"] == 1
            assert metrics["sessions_closed"] == 1
            assert metrics["session_deltas"] == 3
            assert metrics["gauge_sessions_active"] == 0
        finally:
            service.stop()


class TestTcpSessions:
    def test_wire_flow_bit_identical(self, tcp_service, fig1_mset):
        _, (host, port) = tcp_service
        with ServiceClient(host, port) as client:
            opened = client.open_session(fig1_mset, solver="dp")
            mset = fig1_mset
            for delta in churn_chain(fig1_mset, seed=7, length=3):
                mset = apply_delta(mset, delta)
                update = client.send_delta(opened.session_id, delta)
                assert update.seq == delta.seq
                assert canonical_result_payload(update.result) == (
                    canonical_result_payload(_cold(mset))
                )
            client.close_session(opened.session_id)

    def test_out_of_order_and_duplicates_over_the_wire(self, tcp_service, fig1_mset):
        _, (host, port) = tcp_service
        with ServiceClient(host, port) as client:
            opened = client.open_session(fig1_mset, solver="dp")
            sid = opened.session_id
            with pytest.raises(ServiceError, match="out-of-order delta seq 5"):
                client.send_delta(sid, _join(5, "j1"))
            delta = _join(1, "j1")
            first = client.send_delta(sid, delta)
            replay = client.send_delta(sid, delta)  # connection still usable
            assert canonical_result_payload(replay.result) == (
                canonical_result_payload(first.result)
            )
            assert replay.seq == first.seq == 1
            client.close_session(sid)

    def test_reconnect_resumes_the_stream(self, tcp_service, fig1_mset):
        _, (host, port) = tcp_service
        first = ServiceClient(host, port, client_id="conn-a")
        opened = first.open_session(fig1_mset, solver="dp")
        sid = opened.session_id
        sent = first.send_delta(sid, _join(1, "j1"))
        first.close()  # dropping the connection does not close the session

        with ServiceClient(host, port, client_id="conn-b") as second:
            resumed = second.resume_session(sid)
            assert resumed.seq == 1
            assert canonical_result_payload(resumed.result) == (
                canonical_result_payload(sent.result)
            )
            follow_on = second.send_delta(sid, _join(2, "j2"))
            assert follow_on.seq == 2
            second.close_session(sid)


class TestCrashRestartReplay:
    """kill -9 the service; a restart replays the session from the store."""

    def _spawn(self, store: Path):
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(root / "src")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli.main",
                "serve",
                "--port",
                "0",
                "--store",
                str(store),
                "--shards",
                "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(root),
        )
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            if "listening on" in line:
                address = line.split("listening on", 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                return process, host, int(port)
        process.kill()
        pytest.fail("service subprocess never became ready")

    def test_killed_service_replays_identical_plans(self, tmp_path, fig1_mset):
        store = tmp_path / "planstore"
        deltas = churn_chain(fig1_mset, seed=11, length=3)
        process, host, port = self._spawn(store)
        try:
            with ServiceClient(host, port, timeout=30.0) as client:
                opened = client.open_session(fig1_mset, solver="dp")
                before = [opened] + [
                    client.send_delta(opened.session_id, delta) for delta in deltas
                ]
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
            process.stdout.close()

        # restart over the same store: session state is gone (it is
        # in-memory by design) but every plan replays from the store tier
        process, host, port = self._spawn(store)
        try:
            with ServiceClient(host, port, timeout=30.0) as client:
                with pytest.raises(ServiceError, match="unknown session"):
                    client.resume_session(before[0].session_id)
                reopened = client.open_session(fig1_mset, solver="dp")
                after = [reopened] + [
                    client.send_delta(reopened.session_id, delta) for delta in deltas
                ]
                for old, new in zip(before, after):
                    assert new.seq == old.seq
                    assert canonical_result_payload(new.result) == (
                        canonical_result_payload(old.result)
                    )
                # the replayed stream was served from cache tiers — the
                # plan store warm-start plus the memory tier it fills (a
                # rename-only handover shares its canonical key with the
                # membership before it) — never re-solved
                metrics = client.metrics()
                hits = sum(
                    count
                    for name, count in metrics.items()
                    if name.startswith("session_hits_")
                )
                assert metrics["session_hits_store"] >= 1
                assert hits == len(after)
                assert metrics.get("solves", 0) == 0
                client.close_session(reopened.session_id)
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
            process.stdout.close()
