"""Open-loop TCP benchmark of ``repro serve`` (see loadbench/README.md).

Usage, from the root of a checkout::

    python3 loadbench/run.py --workload zipf-fleet --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
TCP phases and then replays the stream in-process with spans, printing
the per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()

#: Server spawns per run; ``setup_s`` is their median.
SETUP_SPAWNS = 7

#: A run whose generator sent later than this (p99) is invalid.
GEN_LAG_LIMIT_MS = 10.0

#: Seconds the open loop waits for stragglers after the window.
DRAIN_S = 20.0


_CLOCK = [time.perf_counter()]


def _progress(phase: str) -> None:
    """Phase timings on stderr, for diagnosing slow runs."""
    now = time.perf_counter()
    print(f"loadbench: {phase} took {now - _CLOCK[0]:.2f}s", file=sys.stderr)
    _CLOCK[0] = now


def _percentile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _latencies_ms(ops, log, failed_ms: float):
    """``(due, latency from due)`` per op; unanswered or failed ops get
    ``failed_ms``, which is over any limit."""
    values = []
    for op in ops:
        arrival = log.arrived.get(op.id)
        line = log.answers.get(op.id, b"")
        if arrival is None or line.startswith(b'{"error"'):
            values.append((op.due, failed_ms))
        else:
            values.append((op.due, (arrival - op.due) * 1000.0))
    return values


def _lags_ms(ops, log):
    """How late each op left: after its due time, or for a session delta
    after the later of its due time and the previous acknowledgement."""
    lags = []
    acked = {}
    for op in sorted(ops, key=lambda op: (op.session or "", op.seq)):
        if op.id not in log.sent:
            continue
        ready = op.due
        if op.session is not None:
            ready = max(ready, acked.get(op.session, 0.0))
            acked[op.session] = log.arrived.get(op.id, float("inf"))
        lags.append((log.sent[op.id] - ready) * 1000.0)
    return lags


def _server_args(spec, workdir: Path):
    args = []
    if spec.store:
        args += ["--store", str(workdir / "store")]
    if spec.snapshots:
        args += ["--table-snapshots", str(workdir / "snapshots")]
    return args


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from tcp import GENERATOR_CPUS, ServerProcess, closed_loop, open_loop, send_all
    from verify import Verdict, check_responses, compute_references
    from workloads import OPEN_SHARE, SPECS, build_stream

    spec = SPECS[workload]
    if GENERATOR_CPUS:
        os.sched_setaffinity(0, GENERATOR_CPUS)
    stream = build_stream(workload, seed, seconds)
    _progress("stream build")
    workdir = ROOT / ".loadbench" / "work" / f"{workload}-{seed}-{os.getpid()}"
    results_dir = ROOT / ".loadbench" / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    server = None
    try:
        refs = compute_references(
            stream,
            workdir / "store" if spec.store else None,
            workdir / "snapshots" if spec.snapshots else None,
        )
        pristine = workdir / "pristine"
        for name in ("store", "snapshots"):
            if (workdir / name).exists():
                shutil.copytree(workdir / name, pristine / name)
        _progress("reference answers and set-up state")

        # set-up time: spawn to first pong, median of several spawns
        setups = []
        for attempt in range(SETUP_SPAWNS):
            server = ServerProcess(ROOT, _server_args(spec, workdir), workdir / "server.log")
            setups.append(server.start())
            if attempt < SETUP_SPAWNS - 1:
                server.stop()
        address = server.address
        _progress("server spawns")

        opened = send_all(address, stream.setup_ops)
        cpu = {}
        window = open_loop(
            address, stream.ops, stream.window_s, DRAIN_S,
            on_start=lambda: cpu.setdefault("start", server.cpu_seconds()),
        )
        cpu["end"] = server.cpu_seconds()
        _progress("open loop")
        cycles = {}

        def replayed_on(conn):
            # the window again and again, each cycle on fresh ids/sessions
            for cycle in itertools.count():
                if cycle not in cycles:
                    cycles[cycle] = stream.replay_cycle(cycle)
                yield from (op for op in cycles[cycle] if op.conn == conn)

        closed_limit = max(1.0, seconds * (1.0 - OPEN_SHARE))
        replay = closed_loop(address, [replayed_on(0), replayed_on(1)], closed_limit)
        _progress("closed loop")
        verb = server.call({"type": "metrics", "id": 0})["metrics"]
        rss_mb = server.peak_rss_mb()
        server.stop()
        server = None

        # ---- correctness gate (after the phases, outside timing) ----
        verdict = Verdict()
        check_responses(opened.answers, stream.setup_ops, refs, verdict, makespan=False)
        check_responses(window.answers, stream.ops, refs, verdict, makespan=True)
        replayed = [op for ops in cycles.values() for op in ops if op.id in replay.answers]
        check_responses(replay.answers, replayed, refs, verdict, makespan=False)
        attempted = len(stream.setup_ops) + len(stream.ops) + len(replayed)
        failed = len(verdict.errors) + len(verdict.mismatches)
        _progress("verification")

        # ---- end-to-end metrics ----
        failed_ms = (stream.window_s + DRAIN_S) * 1000.0
        plan_ops = [op for op in stream.ops if op.kind == "plan"]
        delta_ops = [op for op in stream.ops if op.kind == "delta"]
        plan_ms = _latencies_ms(plan_ops, window, failed_ms)
        delta_ms = _latencies_ms(delta_ops, window, failed_ms)
        lags = _lags_ms(stream.ops, window)
        completed = len(window.answers)
        server_errors = int(verb.get("errors_total", 0)) + int(verb.get("rejected", 0))
        client_errors = len(verdict.errors)
        health = {
            "gen_lag_p99_ms": _percentile(lags, 0.99),
            "offered": len(stream.ops),
            "sent": len(window.sent),
            "plan_samples": len(plan_ms),
            "delta_samples": len(delta_ms),
            # session callers' latency: recorded, not a listed metric
            # (too noisy beside these workloads' plan traffic)
            "delta_p50_ms": _percentile([v for _d, v in delta_ms], 0.50),
            "delta_p99_ms": _percentile([v for _d, v in delta_ms], 0.99),
            "replayed": len(replayed),
            "server_errors": server_errors,
            "client_errors": client_errors,
            "error_ratio": failed / attempted,
        }
        valid = health["gen_lag_p99_ms"] <= GEN_LAG_LIMIT_MS
        correct = failed == 0 and server_errors == client_errors
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "plan_p50_ms": (_percentile([v for _d, v in plan_ms], 0.50), "ms"),
            "plan_p99_ms": (_percentile([v for _d, v in plan_ms], 0.99), "ms"),
            "capacity_rps": (len(replay.answers) / replay.elapsed_s, "ops/s"),
            "served_ratio": ((attempted - failed) / attempted, "1"),
            "server_cpu_ms_per_op": (
                (cpu["end"] - cpu["start"]) * 1000.0 / max(completed, 1), "ms"),
            "server_rss_mb": (rss_mb, "MB"),
            "makespan_over_lb": (statistics.fmean(verdict.ratios) if verdict.ratios
                                 else 0.0, "1"),
        }
        if trace:
            from traced import traced_metrics

            metrics = traced_metrics(
                stream, spec, pristine, workdir, verb,
                plan_p50_ms=metrics["plan_p50_ms"][0],
                spans_path=results_dir / f"{workload}-seed{seed}-spans.jsonl",
            )
            _progress("traced replay")
        record = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "valid": valid,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "health": health,
            "setup_spawns_s": setups,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "server_metrics": verb,
            "problems": (verdict.errors + verdict.mismatches)[:20],
        }
        out = results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        out.with_name(out.stem + "-latencies.json").write_text(
            json.dumps({"plan": plan_ms, "delta": delta_ms}) + "\n"
        )
        return record
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("loadbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # a terminated benchmark still stops its server (finally blocks run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    health = record["health"]
    print(f"loadbench {args.workload} seed={args.seed}: "
          f"offered={health['offered']} sent={health['sent']} "
          f"gen_lag_p99_ms={health['gen_lag_p99_ms']:.3f} "
          f"error_ratio={health['error_ratio']:.4f} "
          f"server_errors={health['server_errors']} "
          f"valid={record['valid']} wall={time.perf_counter() - started:.1f}s")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if not record["valid"]:
        print(f"loadbench: run invalid, generator lag p99 "
              f"{health['gen_lag_p99_ms']:.2f} ms > {GEN_LAG_LIMIT_MS} ms",
              file=sys.stderr)
        return 3
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
