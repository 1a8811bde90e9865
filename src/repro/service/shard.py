"""Canonically-sharded solver workers for the planning service.

The service fans real solves out to a fixed set of *shards*.  A request is
routed by its canonical **network** key
(:attr:`repro.core.canonical.CanonicalForm.network_key` — the instance's
canonical type system plus latency), so all traffic drawn from the same
network lands on the same shard: concurrent duplicate (or merely
*equivalent*) requests serialize behind one worker instead of burning
several on the same solve, and repeated same-network ``dp`` traffic is
answered from the optimal table already built for it instead of
rebuilding it.

Each shard owns one single-worker executor, created lazily:

- ``mode="process"`` — a one-process :class:`ProcessPoolExecutor` running
  :func:`repro.api.planner._plan_standalone` (true CPU parallelism across
  shards; requests must be picklable);
- ``mode="thread"`` — a one-thread pool (portable default; the GIL caps
  parallelism but keeps the event loop responsive);
- ``mode="inline"`` — solve on the caller's thread (tests and examples;
  blocks the event loop, so never the server default).

Thread and inline workers solve in the owner's process, so they solve
through the :class:`~repro.api.tables.OptimalTableCache` the owner hands
the router (the planning service hands its planner's cache): one process
holds one table cache, and the router never builds one.  Process-mode
workers cannot share it; each is initialized with
:func:`repro.api.planner.configure_standalone_tables` and the owner's
:class:`~repro.api.tables.TableCacheConfig`, so every shard process
applies the same policy — and when the config names a ``snapshot_dir``,
each process *attaches* the directory's mmap-backed table snapshots
instead of rebuilding private copies: the OS shares the resident pages
across all shard processes.

Resilience
----------
Process-mode workers are *supervised*: a worker that dies mid-solve
(OOM-killed, segfaulted, ``SIGKILL``-ed — surfacing as a broken process
pool) is detected, the shard's pool is rebuilt through the same
``configure_standalone_tables`` initializer, ``worker_restarts`` is
counted, and the in-flight request is requeued onto the fresh worker
once.  A second consecutive death fails the request closed with a
*retryable* :class:`ServiceError` instead of looping.  Solves may also
carry a per-request deadline: :meth:`ShardRouter.solve_in_worker` raises
:class:`~repro.exceptions.DeadlineExceededError` when it elapses, which
the service converts into an explicitly-``degraded`` response.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Dict, Optional

from repro import faults
from repro.api.planner import (
    _plan_standalone,
    _plan_standalone_with,
    configure_standalone_tables,
)
from repro.api.request import PlanRequest, PlanResult
from repro.api.tables import OptimalTableCache, TableCacheConfig
from repro.exceptions import (
    DeadlineExceededError,
    ReproError,
    ServiceRetryableError,
)
from repro.service.metrics import MetricsRegistry

__all__ = ["ShardRouter", "WORKER_MODES"]

WORKER_MODES = ("thread", "process", "inline")


class ShardRouter:
    """Route plan requests to ``num_shards`` single-worker executors.

    ``tables`` is the cache thread and inline workers solve through
    (``None``: direct solves); ``table_config`` is the policy process-mode
    workers build their own cache from (``None``: the default config).
    """

    def __init__(
        self,
        num_shards: int = 4,
        *,
        mode: str = "thread",
        table_config: Optional[TableCacheConfig] = None,
        tables: Optional[OptimalTableCache] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if num_shards < 1:
            raise ReproError(f"num_shards must be >= 1, got {num_shards}")
        if mode not in WORKER_MODES:
            raise ReproError(
                f"worker mode must be one of {WORKER_MODES}, got {mode!r}"
            )
        self.num_shards = num_shards
        self.mode = mode
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.table_config = (
            table_config.validate() if table_config is not None else None
        )
        self._tables = tables
        self._lock = threading.Lock()
        self._executors: Dict[int, Executor] = {}
        self._supervisors: Dict[int, Executor] = {}
        self._deadline_runners: Dict[int, Executor] = {}
        self._dispatched: Dict[int, int] = {s: 0 for s in range(num_shards)}

    def shard_of(self, routing_key: str) -> int:
        """Stable shard id for a routing key (hex prefix modulo shards)."""
        return int(routing_key[:8], 16) % self.num_shards

    def shard_for(self, request: PlanRequest) -> int:
        """Shard id a request routes to: by canonical *network* key.

        Same-network traffic — whatever the destination mix, node names
        or power-of-two time unit — shares a shard, so the worker that
        already built that network's optimal table keeps serving it.
        Identical (and equivalent) concurrent requests still always share
        a shard, which the service's duplicate-coalescing relies on.
        """
        return self.shard_of(request.instance.canonical_form().network_key)

    def _executor(self, shard: int) -> Optional[Executor]:
        if self.mode == "inline":
            return None
        with self._lock:
            executor = self._executors.get(shard)
            if executor is None:
                if self.mode == "process":
                    # same table policy in every shard process; with a
                    # snapshot_dir the workers mmap-attach shared tables
                    executor = ProcessPoolExecutor(
                        max_workers=1,
                        initializer=configure_standalone_tables,
                        initargs=(self.table_config,),
                    )
                else:
                    executor = ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix=f"repro-shard-{shard}"
                    )
                self._executors[shard] = executor
            return executor

    def serving_executor(self, shard: int) -> Optional[Executor]:
        """The single thread that serves this shard's cache misses.

        The planning service runs its whole miss path (cache re-check →
        solve → store write-through) on this thread so long solves never
        occupy threads of the shared default executor.  In ``thread`` mode
        it *is* the shard's worker; in ``process`` mode it is a dedicated
        supervisor thread that blocks on the shard's process pool;
        ``inline`` mode has none (callers fall back to the default pool).
        """
        if self.mode == "inline":
            return None
        if self.mode == "thread":
            return self._executor(shard)
        with self._lock:
            supervisor = self._supervisors.get(shard)
            if supervisor is None:
                supervisor = ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix=f"repro-shard-{shard}-supervisor",
                )
                self._supervisors[shard] = supervisor
            return supervisor

    def _deadline_runner(self, shard: int) -> Executor:
        """A one-thread pool that runs deadline-bounded thread/inline solves.

        The serving thread cannot await itself, so a deadline in thread
        mode needs a second thread to run the solve while the serving
        thread keeps the clock.  An abandoned solve keeps running on this
        thread until it finishes (Python threads cannot be killed);
        subsequent solves for the shard queue behind it, which the
        admission cap already bounds.
        """
        with self._lock:
            runner = self._deadline_runners.get(shard)
            if runner is None:
                runner = ThreadPoolExecutor(
                    max_workers=1,
                    thread_name_prefix=f"repro-shard-{shard}-deadline",
                )
                self._deadline_runners[shard] = runner
            return runner

    def _restart_shard(self, shard: int, broken: Executor) -> None:
        """Replace a dead process pool; the next `_executor` call rebuilds.

        The rebuilt pool runs the same ``configure_standalone_tables``
        initializer, so the fresh worker re-applies table policy (and
        re-attaches mmap snapshots) exactly like a restarted server.
        """
        with self._lock:
            if self._executors.get(shard) is broken:
                del self._executors[shard]
        broken.shutdown(wait=False)
        self.metrics.inc("worker_restarts")

    @staticmethod
    def _kill_worker(executor: Executor) -> None:
        """Fault effect for ``worker.kill``: SIGKILL the pool's process."""
        processes = dict(getattr(executor, "_processes", {}) or {})
        if not processes:
            # spin the pool up so there is a worker to kill
            executor.submit(int, 0).result()
            processes = dict(getattr(executor, "_processes", {}) or {})
        for process in processes.values():
            try:
                os.kill(process.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):  # pragma: no cover - raced exit
                pass

    def _solve_local(self, request: PlanRequest) -> PlanResult:
        return _plan_standalone_with(self._tables, request)

    def _solve_in_process(
        self, shard: int, request: PlanRequest, deadline_s: Optional[float]
    ) -> PlanResult:
        for attempt in (1, 2):
            executor = self._executor(shard)
            assert executor is not None
            if faults.ACTIVE is not None and faults.ACTIVE.fire("worker.kill"):
                self._kill_worker(executor)
            try:
                future = executor.submit(_plan_standalone, request)
                return future.result(deadline_s)
            except FuturesTimeoutError:
                raise DeadlineExceededError(
                    f"solve exceeded the {deadline_s:g}s deadline on shard {shard}"
                ) from None
            except BrokenExecutor:
                # the worker process died mid-solve; rebuild the pool and
                # requeue this request onto the fresh worker once
                self._restart_shard(shard, executor)
                if attempt == 1:
                    continue
                raise ServiceRetryableError(
                    f"shard {shard} worker died twice in a row; retry later"
                ) from None
        raise AssertionError("unreachable")  # pragma: no cover

    def solve_in_worker(
        self,
        shard: int,
        request: PlanRequest,
        *,
        deadline_s: Optional[float] = None,
    ) -> PlanResult:
        """Solve when already on the shard's serving thread.

        ``thread``/``inline`` modes run the solver directly (submitting to
        the shard's own single-worker pool from its own thread would
        deadlock); ``process`` mode blocks on the shard's process pool
        under supervision (see the module docstring).  With ``deadline_s``
        the solve is bounded: :class:`DeadlineExceededError` is raised
        when it elapses and the solver has not finished.
        """
        if not 0 <= shard < self.num_shards:
            raise ReproError(f"shard must be in [0, {self.num_shards}), got {shard}")
        with self._lock:
            self._dispatched[shard] += 1
        if faults.ACTIVE is not None:
            spec = faults.ACTIVE.fire("solver.delay")
            if spec is not None and spec.delay_s > 0:
                # an injected stall models a slow solver, so it spends the
                # request's deadline budget: a stall past the deadline
                # waits the budget out, then times out like a real one
                if deadline_s is not None and spec.delay_s >= deadline_s:
                    time.sleep(deadline_s)
                    raise DeadlineExceededError(
                        f"solve exceeded the {deadline_s:g}s deadline on "
                        f"shard {shard} (injected stall)"
                    )
                time.sleep(spec.delay_s)
                if deadline_s is not None:
                    deadline_s -= spec.delay_s
            if faults.ACTIVE.fire("solver.error"):
                raise ServiceRetryableError(
                    "fault injected: solver error (retryable)"
                )
        if self.mode == "process":
            return self._solve_in_process(shard, request, deadline_s)
        if deadline_s is not None:
            future = self._deadline_runner(shard).submit(self._solve_local, request)
            try:
                return future.result(deadline_s)
            except FuturesTimeoutError:
                raise DeadlineExceededError(
                    f"solve exceeded the {deadline_s:g}s deadline on shard {shard}"
                ) from None
        return self._solve_local(request)

    def solve_sync(self, request: PlanRequest) -> PlanResult:
        """Route and solve one request, blocking (tests, one-shots).

        Thin wrapper over the production path: routes with
        :meth:`shard_for`, then runs :meth:`solve_in_worker` on the
        shard's serving thread.
        """
        shard = self.shard_for(request)
        executor = self.serving_executor(shard)
        if executor is None:  # inline mode
            return self.solve_in_worker(shard, request)
        return executor.submit(self.solve_in_worker, shard, request).result()

    def stats(self) -> Dict[str, int]:
        """Per-shard dispatch counters, e.g. ``{"shard_0": 12, ...}``."""
        with self._lock:
            return {f"shard_{s}": n for s, n in sorted(self._dispatched.items())}

    def shutdown(self) -> None:
        """Tear down every lazily-created executor."""
        with self._lock:
            executors, self._executors = dict(self._executors), {}
            supervisors, self._supervisors = dict(self._supervisors), {}
            runners, self._deadline_runners = dict(self._deadline_runners), {}
        for executor in (
            *supervisors.values(),
            *runners.values(),
            *executors.values(),
        ):
            executor.shutdown(wait=True)
