"""Traced mode: replay a stream in-process and time every layer.

The stream's window operations are replayed, in due order, through each
layer's public functions, mirroring the server's request path::

    wire.decode -> canonical.key -> planner.lookup (store.get)
        -> shard.route -> solve.* (tables.*, dp.materialize, bounds)
        -> store.put -> wire.encode
    wire.decode -> sessions.apply (repair.apply_delta, tables.*,
        dp.materialize, store.put) -> wire.encode

Spans are recorded around those calls by this file only: direct calls
are wrapped where the replay makes them, calls a layer makes internally
are wrapped by rebinding the attribute the caller looks up (an instance
method, or a module global of the calling module) for the duration of
the pass.  Each span holds its name, start, end, parent and op id; they
stay in memory and are written out when the run ends.

The replay runs three times on fresh copies of the set-up state: without
spans, with spans (the difference is the tracing overhead) and once
through :meth:`PlanningService.submit_sync` for the service's own share.
"""

from __future__ import annotations

import json
import shutil
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

import repro.api.planner as planner_module
import repro.service.sessions as sessions_module
from repro.api import Planner
from repro.api.tables import TableCacheConfig
from repro.core.dp_table import OptimalTable
from repro.service import protocol
from repro.service.server import PlanningService
from repro.service.sessions import SessionManager
from repro.service.shard import ShardRouter
from repro.service.store import PlanStore

#: Timed layers, in request-path order.  Each reports ``<layer>_us`` (p50
#: of its per-op inclusive time), ``<layer>_busy_s`` (sum of self time)
#: and ``<layer>_calls`` (ops that entered it); a layer name without a
#: dot uses ``.`` instead of ``_`` (``bounds.us``).
TIMED_LAYERS = (
    "wire.decode",
    "canonical.key",
    "planner.lookup",
    "store.get",
    "shard.route",
    "solve.greedy",
    "solve.dp_direct",
    "tables.hit",
    "tables.extend",
    "tables.build",
    "tables.attach",
    "dp.materialize",
    "bounds",
    "store.put",
    "sessions.apply",
    "repair.apply_delta",
    "wire.encode",
    "service.submit",
    "service.dispatch_self",
)

#: Counters and ratios, with their units.
OTHER_METRICS = (
    ("planner.memory_hit_ratio", "1"),
    ("planner.tier_hit_ratio", "1"),
    ("store.warm_keys", "count"),
    ("shard.imbalance", "1"),
    ("tables.builds", "count"),
    ("tables.extensions", "count"),
    ("tables.attaches", "count"),
    ("tables.evictions", "count"),
    ("sessions.repaired_ratio", "1"),
    ("tcp.transport_us", "us"),
    ("server.hits_memory", "count"),
    ("server.hits_store", "count"),
    ("server.solves", "count"),
    ("server.coalesced", "count"),
    ("server.rejected", "count"),
    ("server.errors_total", "count"),
    ("server.session_repairs", "count"),
    ("trace.overhead_ratio", "1"),
)

#: Spans of the service pass that are not the service's own work.
_SERVICE_CHILDREN = ("canonical.key", "planner.lookup", "solve", "store")


def metric_names(layer: str) -> Dict[str, str]:
    """``{"us"|"busy_s"|"calls": metric name}`` of a timed layer."""
    sep = "_" if "." in layer else "."
    return {part: f"{layer}{sep}{part}" for part in ("us", "busy_s", "calls")}


def per_layer_catalogue() -> List[tuple]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    out = []
    for layer in TIMED_LAYERS:
        names = metric_names(layer)
        out += [(names["us"], "us"), (names["busy_s"], "s"), (names["calls"], "count")]
    return out + list(OTHER_METRICS)


class Tracer:
    """In-memory span recorder; thread-safe appends, per-thread stacks."""

    def __init__(self) -> None:
        self.op: Optional[int] = None
        self.spans: List[list] = []  # [op, name, start_ns, end_ns, parent]
        self._local = threading.local()
        self._lock = threading.Lock()

    def _open(self, name: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        record = [self.op, name, time.perf_counter_ns(), 0, stack[-1] if stack else -1]
        with self._lock:
            record.append(len(self.spans))
            self.spans.append(record)
        stack.append(record[5])
        return record

    def _close(self, record: list) -> None:
        record[3] = time.perf_counter_ns()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    def wrap_acquire(self, tables) -> Callable:
        """``OptimalTableCache.acquire`` named by the outcome it caused."""
        acquire = tables.acquire

        def traced(*args: Any, **kwargs: Any) -> Any:
            before = tables.stats()
            record = self._open("tables.hit")
            try:
                return acquire(*args, **kwargs)
            finally:
                self._close(record)
                after = tables.stats()
                for counter, name in (("attaches", "tables.attach"),
                                      ("extensions", "tables.extend"),
                                      ("builds", "tables.build")):
                    if after[counter] > before[counter]:
                        record[1] = name
                        break

        return traced

    def per_op(self) -> Dict[str, Dict[int, tuple]]:
        """``{name: {op: (inclusive ns, self ns)}}`` summed per op.

        A span nested directly in a span of the same name is folded into
        its parent, so recursion is not counted twice.
        """
        child_ns = [0] * len(self.spans)
        for op, name, start, end, parent, index in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[int, tuple]] = {}
        for op, name, start, end, parent, index in self.spans:
            if parent >= 0 and self.spans[parent][1] == name:
                continue
            by_op = out.setdefault(name, {})
            total, own = by_op.get(op, (0, 0))
            by_op[op] = (total + end - start, own + end - start - child_ns[index])
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for op, name, start, end, parent, index in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "id": index}))
                fh.write("\n")


@contextmanager
def _rebound(target: Any, attribute: str, replacement: Any) -> Iterator[None]:
    original = getattr(target, attribute)
    setattr(target, attribute, replacement)
    try:
        yield
    finally:
        setattr(target, attribute, original)


def _fresh_state(pristine: Path, dest: Path, spec):
    """Store and table config on a private copy of the set-up state."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    store = None
    table_config = None
    if spec.store:
        shutil.copytree(pristine / "store", dest / "store")
        store = PlanStore(dest / "store")
    if spec.snapshots:
        shutil.copytree(pristine / "snapshots", dest / "snapshots")
        table_config = TableCacheConfig(snapshot_dir=dest / "snapshots")
    return store, table_config


def replay_layers(stream, spec, pristine: Path, dest: Path,
                  tracer: Optional[Tracer]) -> Dict[str, Any]:
    """One in-process replay through the layers; returns wall time and counts."""
    store, table_config = _fresh_state(pristine, dest, spec)
    # the CLI defaults of `repro serve`: cache 1024, 4 shards
    planner = Planner(cache_size=1024, table_config=table_config) if table_config \
        else Planner(cache_size=1024)
    if store is not None:
        planner.add_cache_tier(store)
    router = ShardRouter(4, table_config=table_config)
    sessions = SessionManager(planner)
    warm_keys = len(store) if store is not None else 0
    for op in stream.setup_ops:  # session opens and warm-up, untimed
        message = protocol.decode(op.frame)
        if op.kind == "open":
            request, sid = protocol.parse_session_open(message)
            sessions.open(request, session_id=sid, client_id="sessions")
        else:
            planner.plan(protocol.parse_plan_request(message))
    counts = {"lookups": 0, "memory": 0, "tier": 0, "deltas": 0, "repaired": 0,
              "warm_keys": warm_keys}
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    patches = []
    if tracer is not None:
        tables = planner.table_cache
        patches = [
            _rebound(planner_module, "map_schedule",
                     tracer.wrap("dp.materialize", planner_module.map_schedule)),
            _rebound(OptimalTable, "schedule_for",
                     tracer.wrap("dp.materialize", OptimalTable.schedule_for)),
            _rebound(planner_module, "certified_lower_bound",
                     tracer.wrap("bounds", planner_module.certified_lower_bound)),
            _rebound(planner_module, "bound_report",
                     tracer.wrap("bounds", planner_module.bound_report)),
            _rebound(sessions_module, "apply_delta",
                     tracer.wrap("repair.apply_delta", sessions_module.apply_delta)),
        ]
        if tables is not None:
            patches.append(_rebound(tables, "acquire", tracer.wrap_acquire(tables)))
        if store is not None:
            patches.append(_rebound(store, "get", tracer.wrap("store.get", store.get)))
            patches.append(_rebound(store, "put", tracer.wrap("store.put", store.put)))
    for patch in patches:
        patch.__enter__()
    try:
        start = time.perf_counter()
        for op in stream.ops:
            if tracer is not None:
                tracer.op = op.id
            if op.kind == "plan":
                with span("wire.decode"):
                    message = protocol.decode(op.frame)
                    request = protocol.parse_plan_request(message)
                with span("canonical.key"):
                    key = planner.request_key(request)
                with span("planner.lookup"):
                    hit = planner.cache_lookup(request, key)
                counts["lookups"] += 1
                if hit is not None:
                    result, tier = hit
                    counts["memory" if tier == "memory" else "tier"] += 1
                else:
                    with span("shard.route"):
                        router.shard_for(request)
                    solve = "solve.dp_direct" if request.solver == "dp" else "solve.greedy"
                    with span(solve):
                        result = planner.solve_uncached(request)
                    planner.cache_store(request, result, key)
                    tier = "solve"
                with span("wire.encode"):
                    protocol.encode(protocol.result_message(result, tier, id=op.id))
            else:
                with span("wire.decode"):
                    message = protocol.decode(op.frame)
                    sid, delta = protocol.parse_session_delta(message)
                with span("sessions.apply"):
                    update = sessions.apply(sid, delta)
                counts["deltas"] += 1
                counts["repaired"] += int(update.repaired)
                with span("wire.encode"):
                    protocol.encode(protocol.session_result_message(update, id=op.id))
        counts["elapsed_s"] = time.perf_counter() - start
    finally:
        for patch in reversed(patches):
            patch.__exit__(None, None, None)
        sessions.close_all()
    counts["tables"] = planner.table_cache.stats() if planner.table_cache is not None else {}
    return counts


def replay_service(stream, spec, pristine: Path, dest: Path, tracer: Tracer) -> None:
    """Replay through ``PlanningService.submit_sync`` with child spans."""
    store_path = None
    table_config = None
    if spec.store:
        store_path = dest / "store"
    if spec.snapshots:
        table_config = TableCacheConfig(snapshot_dir=dest / "snapshots")
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    for name in ("store", "snapshots"):
        if (pristine / name).exists():
            shutil.copytree(pristine / name, dest / name)
    # the CLI defaults of `repro serve`
    service = PlanningService(store_path=store_path, table_config=table_config,
                              num_shards=4, worker_mode="thread", max_pending=1024,
                              cache_size=1024, segment_max_records=512)
    planner = service.planner
    service.start_background()
    try:
        for op in stream.setup_ops:  # session opens and warm-up, untimed
            message = protocol.decode(op.frame)
            if op.kind == "open":
                request, sid = protocol.parse_session_open(message)
                service.open_session_sync(request, "sessions", session_id=sid)
            else:
                service.submit_sync(protocol.parse_plan_request(message), "warmup")
        with _rebound(planner, "request_key",
                      tracer.wrap("canonical.key", planner.request_key)), \
                _rebound(planner, "cache_lookup",
                         tracer.wrap("planner.lookup", planner.cache_lookup)), \
                _rebound(planner, "cache_store",
                         tracer.wrap("store", planner.cache_store)), \
                _rebound(service.router, "solve_in_worker",
                         tracer.wrap("solve", service.router.solve_in_worker)):
            for op in stream.ops:
                message = protocol.decode(op.frame)
                if op.kind == "plan":
                    request = protocol.parse_plan_request(message)
                    tracer.op = op.id
                    with tracer.span("service.submit"):
                        service.submit_sync(request, str(message.get("client")))
                else:
                    sid, delta = protocol.parse_session_delta(message)
                    tracer.op = None  # session work is not part of any submit
                    service.apply_session_delta_sync(sid, delta, "sessions")
    finally:
        service.stop()


def _layer_stats(per_op: Dict[int, tuple]) -> tuple:
    if not per_op:
        return 0.0, 0.0, 0
    totals = [total for total, _own in per_op.values()]
    busy = sum(own for _total, own in per_op.values())
    return statistics.median(totals) / 1000.0, busy / 1e9, len(per_op)


def traced_metrics(stream, spec, pristine: Path, workdir: Path, verb: Dict[str, Any],
                   *, plan_p50_ms: float, spans_path: Path) -> Dict[str, tuple]:
    """Every per-layer metric as ``{name: (value, unit)}``."""
    untraced = replay_layers(stream, spec, pristine, workdir / "pass-untraced", None)
    tracer = Tracer()
    counts = replay_layers(stream, spec, pristine, workdir / "pass-traced", tracer)
    service_tracer = Tracer()
    replay_service(stream, spec, pristine, workdir / "pass-service", service_tracer)

    layers = tracer.per_op()
    service_ops = service_tracer.per_op()
    submits = service_ops.get("service.submit", {})
    layers["service.submit"] = submits
    own = {}
    for op, (total, _own) in submits.items():
        inner = sum(service_ops.get(name, {}).get(op, (0, 0))[0] for name in _SERVICE_CHILDREN)
        own[op] = (total - inner, total - inner)
    layers["service.dispatch_self"] = own

    metrics: Dict[str, tuple] = {}
    for layer in TIMED_LAYERS:
        names = metric_names(layer)
        p50_us, busy_s, calls = _layer_stats(layers.get(layer, {}))
        metrics[names["us"]] = (p50_us, "us")
        metrics[names["busy_s"]] = (busy_s, "s")
        metrics[names["calls"]] = (calls, "count")
    lookups = max(counts["lookups"], 1)
    tables = counts["tables"]
    shards = [v for k, v in verb.items() if k.startswith("shard_")]
    mean_shard = statistics.fmean(shards) if shards else 0.0
    submit_p50_us = metrics[metric_names("service.submit")["us"]][0]
    other = {
        "planner.memory_hit_ratio": counts["memory"] / lookups,
        "planner.tier_hit_ratio": counts["tier"] / lookups,
        "store.warm_keys": counts["warm_keys"],
        "shard.imbalance": max(shards) / mean_shard if mean_shard else 0.0,
        "tables.builds": tables.get("builds", 0),
        "tables.extensions": tables.get("extensions", 0),
        "tables.attaches": tables.get("attaches", 0),
        "tables.evictions": tables.get("evictions", 0),
        "sessions.repaired_ratio": counts["repaired"] / max(counts["deltas"], 1),
        "tcp.transport_us": plan_p50_ms * 1000.0 - submit_p50_us,
        "server.hits_memory": verb.get("hits_memory", 0),
        "server.hits_store": verb.get("hits_store", 0),
        "server.solves": verb.get("solves", 0),
        "server.coalesced": verb.get("coalesced", 0),
        "server.rejected": verb.get("rejected", 0),
        "server.errors_total": verb.get("errors_total", 0),
        "server.session_repairs": verb.get("session_repairs", 0),
        "trace.overhead_ratio":
            (counts["elapsed_s"] - untraced["elapsed_s"]) / untraced["elapsed_s"],
    }
    for name, unit in OTHER_METRICS:
        metrics[name] = (other[name], unit)
    tracer.write(spans_path)
    service_tracer.write(spans_path.with_name(spans_path.stem + "-service.jsonl"))
    return metrics
