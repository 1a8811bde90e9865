"""Group sessions: membership-delta streams with bit-identical repair.

A *session* tracks one multicast group through churn.  The client opens
it with an initial :class:`~repro.api.request.PlanRequest`, then streams
:class:`~repro.core.repair.MembershipDelta` batches; each accepted delta
yields a :class:`SessionUpdate` carrying the *repaired* plan for the
post-delta membership.  Repair never changes a single output bit — a
repaired plan is byte-equal to cold-planning the new membership (the
``repair-identity`` conformance invariant proves it continuously) — it
only changes the *cost*:

* while churn stays inside the group's canonical network
  (:func:`repro.core.canonical.same_network`), the session keeps serving
  from the cached :class:`~repro.core.dp_table.OptimalTable`, so a delta
  costs an ``O(n)`` schedule-materialization suffix (plus an incremental
  table extension when a join raises a type count) instead of a full DP
  re-plan — the ``delta_replan`` perf kernel holds this at ≥5x;
* a delta that changes the type system falls back to a cold solve.

Sequencing is **fail-closed**: a session accepts exactly ``last_seq + 1``.
An exact duplicate of the last applied delta is answered idempotently
with the already-computed update (at-least-once clients are safe); any
other out-of-order sequence number is rejected with
:class:`~repro.exceptions.ServiceError` and the session state — last
membership, last schedule, sequence cursor — is untouched.  A rejected
*content* (unknown departure, name collision, emptied group …) is
likewise rejected whole by :func:`repro.core.repair.apply_delta` before
any state changes.

The table a session repairs from is **pinned**
(:meth:`~repro.api.tables.OptimalTableCache.acquire` with ``pin=True``)
for as long as the session holds it, so cache-budget eviction triggered
by unrelated traffic can never invalidate an in-flight repair; the pin
moves when churn changes the session's network and is released on
:meth:`SessionManager.close`.

:class:`SessionManager` is deliberately service-independent — it needs
only a :class:`~repro.api.planner.Planner` — so the conformance
invariant, the perf kernel and the property tests drive the exact
production repair path without a running service.  The
:class:`~repro.service.server.PlanningService` embeds one and exposes it
over the wire via the ``session-*`` messages
(:mod:`repro.service.protocol`).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.api.planner import _TABLE_SAFE_OPTIONS, Planner
from repro.api.request import PlanRequest, PlanResult
from repro.api.solvers import resolve
from repro.core.repair import MembershipDelta, apply_delta
from repro.exceptions import ReproError, ServiceError
from repro.service.metrics import MetricsRegistry

__all__ = ["GroupSession", "SessionManager", "SessionUpdate"]


@dataclass(frozen=True)
class SessionUpdate:
    """One acknowledged schedule: the session's plan as of ``seq``.

    ``seq`` is ``0`` for the opening plan and the delta's sequence number
    afterwards.  ``tier`` mirrors the planner's serving tiers (``"solve"``
    for a real repair or rebuild, a cache tier name otherwise);
    ``repaired`` is ``True`` when the plan was materialized from the
    session's pinned optimal table rather than a cold solve.
    """

    session_id: str
    seq: int
    result: PlanResult
    tier: str
    repaired: bool


class GroupSession:
    """Mutable per-session state (managed by :class:`SessionManager`).

    Attributes are owned by the manager and mutated only under
    :attr:`lock`; ``shard`` is assigned by the planning service so every
    operation on a session runs serially on one shard's serving thread.
    """

    def __init__(self, session_id: str, client_id: str, request: PlanRequest) -> None:
        self.session_id = session_id
        self.client_id = client_id
        self.request = request
        self.last_seq = 0
        self.last_delta: Optional[MembershipDelta] = None
        self.last_update: Optional[SessionUpdate] = None
        #: (type_keys, latency) of the table key this session holds pinned.
        self.pinned_box: Optional[Tuple[tuple, float]] = None
        self.shard: Optional[int] = None
        self.closed = False
        self.lock = threading.Lock()


class SessionManager:
    """Open/apply/resume/close group sessions over one planner.

    Thread-safe: the session registry has its own lock and every
    per-session operation serializes on the session's lock, so concurrent
    deltas for one session are applied one at a time (and the sequence
    check keeps them ordered) while distinct sessions never contend.
    """

    def __init__(self, planner: Planner, *, metrics: Optional[MetricsRegistry] = None) -> None:
        self.planner = planner
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._sessions: Dict[str, GroupSession] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def session(self, session_id: str) -> GroupSession:
        """The live session, or :class:`ServiceError` for an unknown id."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ServiceError(f"unknown session {session_id!r}")
        return session

    def session_ids(self) -> Tuple[str, ...]:
        """Ids of every live session (stable order by id)."""
        with self._lock:
            return tuple(sorted(self._sessions))

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def open(
        self,
        request: PlanRequest,
        *,
        session_id: Optional[str] = None,
        client_id: str = "local",
    ) -> SessionUpdate:
        """Open a session on ``request`` and return the opening plan (seq 0).

        ``session_id`` lets a reconnecting client re-open under a chosen
        id; a taken id is refused (resume instead).
        """
        if not isinstance(request, PlanRequest):
            raise ServiceError(
                f"a session opens on a PlanRequest, got {type(request).__name__}"
            )
        with self._lock:
            if session_id is None:
                session_id = f"s{next(self._ids)}"
                while session_id in self._sessions:  # pragma: no cover - defensive
                    session_id = f"s{next(self._ids)}"
            elif session_id in self._sessions:
                raise ServiceError(f"session {session_id!r} is already open")
            session = GroupSession(session_id, client_id, request)
            self._sessions[session_id] = session
            self.metrics.set_gauge("sessions_active", len(self._sessions))
        try:
            with session.lock:
                result, tier, repaired = self._plan(session, request)
                update = SessionUpdate(session_id, 0, result, tier, repaired)
                session.last_update = update
        except BaseException:
            with self._lock:
                self._sessions.pop(session_id, None)
                self.metrics.set_gauge("sessions_active", len(self._sessions))
            self._release_pin(session)
            raise
        self.metrics.inc("sessions_opened")
        return update

    def apply(self, session_id: str, delta: MembershipDelta) -> SessionUpdate:
        """Apply one delta and return the repaired plan — or fail closed.

        Accepts exactly ``last_seq + 1``.  An exact duplicate of the last
        applied delta replays its update idempotently; any other sequence
        number, and any delta whose content the membership rejects, raises
        :class:`ServiceError` with the session state untouched.
        """
        session = self.session(session_id)
        with session.lock:
            if session.closed:  # closed while we waited on the lock
                raise ServiceError(f"session {session_id!r} is closed")
            if delta.seq == session.last_seq and delta == session.last_delta:
                self.metrics.inc("session_duplicates")
                assert session.last_update is not None
                return session.last_update
            if delta.seq != session.last_seq + 1:
                self.metrics.inc_error("session_rejects")
                raise ServiceError(
                    f"session {session_id!r}: out-of-order delta seq "
                    f"{delta.seq} (expected {session.last_seq + 1})"
                )
            try:
                new_mset = apply_delta(session.request.instance, delta)
            except ReproError as exc:
                self.metrics.inc_error("session_rejects")
                raise ServiceError(
                    f"session {session_id!r}: rejected delta {delta.seq}: {exc}"
                ) from exc
            request = replace(session.request, instance=new_mset)
            result, tier, repaired = self._plan(session, request)
            # commit only after the plan succeeded: a solver error leaves
            # the session at its previous membership and sequence
            session.request = request
            session.last_seq = delta.seq
            session.last_delta = delta
            update = SessionUpdate(session_id, delta.seq, result, tier, repaired)
            session.last_update = update
        self.metrics.inc("session_deltas")
        if repaired:
            self.metrics.inc("session_repairs")
        return update

    def resume(self, session_id: str) -> SessionUpdate:
        """The last acknowledged update (reconnect path; no state change)."""
        session = self.session(session_id)
        with session.lock:
            if session.closed:
                raise ServiceError(f"session {session_id!r} is closed")
            assert session.last_update is not None
            self.metrics.inc("session_resumes")
            return session.last_update

    def close(self, session_id: str) -> None:
        """Close the session and release its pinned table."""
        session = self.session(session_id)
        with session.lock:
            if session.closed:
                raise ServiceError(f"session {session_id!r} is closed")
            session.closed = True
            self._release_pin(session)
        with self._lock:
            self._sessions.pop(session_id, None)
            self.metrics.set_gauge("sessions_active", len(self._sessions))
        self.metrics.inc("sessions_closed")

    def close_all(self) -> None:
        """Close every live session (service shutdown path)."""
        for session_id in self.session_ids():
            try:
                self.close(session_id)
            except ServiceError:  # pragma: no cover - lost a close race
                pass

    # ------------------------------------------------------------------
    # the repair engine
    # ------------------------------------------------------------------
    def _release_pin(self, session: GroupSession) -> None:
        box = session.pinned_box
        session.pinned_box = None
        tables = self.planner.table_cache
        if box is not None and tables is not None:
            tables.release_box(*box)

    def _plan(
        self, session: GroupSession, request: PlanRequest
    ) -> Tuple[PlanResult, str, bool]:
        """Serve one membership: cache tiers, pinned-table repair, or cold.

        Runs under ``session.lock``.  The cache tiers come first so a
        replayed stream (client retry, post-crash restart over a
        :class:`~repro.service.store.PlanStore`) answers from the store
        without re-solving.  The repair path acquires the session's
        network table *pinned* — the pin is taken inside the cache's own
        acquire lock, so concurrent eviction pressure can never drop the
        table between acquiring and holding it — and keeps exactly one
        pin per session, moved when churn changes the network.  Everything
        else (no reusable table, options the table cannot honor, a state
        budget bust, a network change past the cache) takes the cold path.
        """
        planner = self.planner
        key = planner.request_key(request)
        hit = planner.cache_lookup(request, key)
        if hit is not None:
            result, tier = hit
            self.metrics.inc(f"session_hits_{tier}")
            return result, tier, False
        entry, spec_options = resolve(request.solver)
        merged = {**spec_options, **request.options}
        tables = planner.table_cache
        result: Optional[PlanResult] = None
        repaired = False
        if (
            tables is not None
            and entry.capabilities.reusable_table
            and not (set(merged) - _TABLE_SAFE_OPTIONS)
        ):
            canon = request.instance.canonical_form()
            box = (canon.mset.type_keys(), canon.mset.latency)
            table = tables.acquire(
                canon.mset,
                merged.get("max_states"),
                pin=box != session.pinned_box,
            )
            if table is not None:
                if box != session.pinned_box:
                    old = session.pinned_box
                    session.pinned_box = box
                    if old is not None:
                        tables.release_box(*old)
                result = planner.solve_from_table(request, table, canon.mset)
                repaired = True
        if result is None:
            result = planner.solve_uncached(request)
        planner.cache_store(request, result, key)
        return result, "solve", repaired
