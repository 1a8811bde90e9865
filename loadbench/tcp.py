"""The server process and the TCP load generator.

:class:`ServerProcess` spawns ``python -m repro serve --port 0`` and
times it from spawn to its first ``pong``.  :func:`open_loop` and
:func:`closed_loop` drive it over at most two connections from this one
process: frames are pre-encoded, and during a phase each response line is
only stored with its arrival time (its id is pulled out by a regex so
session callers can chain), leaving decoding and verification for after
the phase.
"""

from __future__ import annotations

import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.service import protocol

_ID = re.compile(rb'"id": (\d+)')
_LISTENING = re.compile(r"listening on (\S+):(\d+)")
_TICKS = os.sysconf("SC_CLK_TCK")

#: With two or more CPUs the server runs on CPU 1 and the generator on
#: CPU 0, so neither preempts the other.
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
SERVER_CPUS = {_CPUS[1]} if len(_CPUS) >= 2 else set()
GENERATOR_CPUS = {_CPUS[0]} if len(_CPUS) >= 2 else set()


class ServerProcess:
    """One ``repro serve`` child process (CLI defaults plus ``extra``)."""

    def __init__(self, root: Path, extra: Sequence[str], log_path: Path) -> None:
        self.root = root
        self.extra = list(extra)
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait for the first ``pong``; returns the seconds taken."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        command = [sys.executable, "-m", "repro", "serve", "--port", "0", *self.extra]
        start = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log
            )
        if SERVER_CPUS:
            # before the interpreter starts its threads, which inherit it
            os.sched_setaffinity(self.proc.pid, SERVER_CPUS)
        deadline = start + timeout
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            buffered = b""
            while self.address is None:
                if time.perf_counter() > deadline or self.proc.poll() is not None:
                    raise RuntimeError(f"server did not start (log: {self.log_path})")
                if not sel.select(0.05):
                    continue
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                buffered += chunk
                found = _LISTENING.search(buffered.decode(errors="replace"))
                if found:
                    self.address = (found.group(1), int(found.group(2)))
        reply = self.call(protocol.ping_message(id=0))
        if reply.get("type") != "pong":
            raise RuntimeError(f"unexpected ping reply {reply!r}")
        return time.perf_counter() - start

    def call(self, message: dict, timeout: float = 30.0) -> dict:
        """One request on a fresh connection (ping, metrics)."""
        assert self.address is not None
        with socket.create_connection(self.address, timeout=timeout) as sock:
            sock.sendall(protocol.encode(message))
            data = b""
            while not data.endswith(b"\n"):
                chunk = sock.recv(1 << 16)
                if not chunk:
                    raise RuntimeError("server closed the connection")
                data += chunk
        return protocol.decode(data)

    def cpu_seconds(self) -> float:
        """User plus system CPU of the server so far."""
        assert self.proc is not None
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server, in MB."""
        assert self.proc is not None
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (clean shutdown), then SIGKILL if it lingers; always reaped."""
        proc, self.proc = self.proc, None
        self.address = None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()


class _Driver:
    """Two blocking connections: the caller's thread sends, one reader
    thread per connection timestamps and stores each answer line.

    Readers wake the sender through :attr:`cond` so a session caller can
    send its next delta as soon as the previous one is acknowledged; the
    sender sleeps on the same condition until the next due time, so the
    generator spends no CPU between operations.
    """

    def __init__(self, address: Tuple[str, int], conns: int = 2) -> None:
        self.socks = []
        for _ in range(conns):
            sock = socket.create_connection(address)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
        self.log = PhaseLog()
        self.cond = threading.Condition()
        self.acked: Deque[int] = deque()
        self.failure: Optional[BaseException] = None
        self.closing = False
        self.t0 = time.perf_counter()
        self.readers = [
            threading.Thread(target=self._read, args=(sock,), daemon=True)
            for sock in self.socks
        ]
        for reader in self.readers:
            reader.start()

    def now(self) -> float:
        return time.perf_counter() - self.t0

    def send(self, conn: int, op_id: int, frame: bytes) -> None:
        self.log.sent[op_id] = self.now()
        self.socks[conn].sendall(frame)

    def _read(self, sock: socket.socket) -> None:
        buffered = bytearray()
        try:
            while True:
                chunk = sock.recv(1 << 20)
                arrival = self.now()
                if not chunk:
                    if not self.closing:
                        self.failure = ConnectionError("server closed a load connection")
                    return
                buffered += chunk
                if b"\n" not in chunk:
                    continue
                *lines, rest = bytes(buffered).split(b"\n")
                buffered = bytearray(rest)
                ids = []
                for line in lines:
                    found = _ID.search(line)
                    op_id = int(found.group(1)) if found else int(
                        protocol.decode(line).get("id") or -1
                    )
                    self.log.arrived[op_id] = arrival
                    self.log.answers[op_id] = line
                    ids.append(op_id)
                with self.cond:
                    self.acked.extend(ids)
                    self.cond.notify()
        except OSError as exc:
            if not self.closing:
                self.failure = exc
        finally:
            with self.cond:
                self.cond.notify()

    def wait(self, timeout: float) -> List[int]:
        """Sleep until an answer arrives or ``timeout`` s pass; returns new ids."""
        with self.cond:
            if not self.acked and timeout > 0:
                self.cond.wait(timeout)
            ids = list(self.acked)
            self.acked.clear()
        return ids

    def close(self) -> None:
        self.closing = True
        for sock in self.socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        for reader in self.readers:
            reader.join(timeout=10)


@dataclass
class PhaseLog:
    """What one phase saw: send/arrival times and raw answer lines by op id."""

    sent: Dict[int, float] = field(default_factory=dict)
    arrived: Dict[int, float] = field(default_factory=dict)
    answers: Dict[int, bytes] = field(default_factory=dict)
    elapsed_s: float = 0.0


def closed_loop(
    address: Tuple[str, int], queues: Sequence[Iterator], time_limit: float
) -> PhaseLog:
    """Send each connection's ops back to back, one outstanding per connection.

    ``queues[conn]`` yields that connection's ops in order (so a session's
    deltas, which share a connection, keep theirs).  Stops when every
    queue is drained and answered or ``time_limit`` seconds pass.
    """
    driver = _Driver(address)
    try:
        outstanding: Dict[int, int] = {}

        def send_next(conn: int) -> None:
            op = next(queues[conn], None)
            if op is not None:
                outstanding[op.id] = conn
                driver.send(conn, op.id, op.frame)

        for conn in range(len(queues)):
            send_next(conn)
        while outstanding and driver.now() < time_limit:
            for op_id in driver.wait(0.05):
                conn = outstanding.pop(op_id, None)
                if conn is not None and driver.now() < time_limit:
                    send_next(conn)
        driver.log.elapsed_s = driver.now()
        return driver.log
    finally:
        driver.close()


def open_loop(
    address: Tuple[str, int], ops: Sequence, window_s: float, drain_s: float,
    on_start=None,
) -> PhaseLog:
    """Send every op at its due time; a session's delta also waits for the
    previous acknowledgement of that session (a caller waiting for its ack).

    ``on_start`` runs just before the clock starts (e.g. a CPU reading).
    The phase ends when every op is answered or ``window_s + drain_s``
    seconds pass.
    """
    plans = [op for op in ops if op.session is None]
    chains: Dict[str, Deque] = {}
    for op in ops:
        if op.session is not None:
            chains.setdefault(op.session, deque()).append(op)
    waiting: Dict[int, str] = {}  # delta id -> its session, until acked
    busy: set = set()
    driver = _Driver(address)
    try:
        if on_start is not None:
            on_start()
        driver.t0 = time.perf_counter()
        total = len(ops)
        deadline = window_s + drain_s
        next_plan = 0
        while len(driver.log.arrived) < total and driver.failure is None:
            now = driver.now()
            if now > deadline:
                break
            while next_plan < len(plans) and plans[next_plan].due <= now:
                op = plans[next_plan]
                driver.send(op.conn, op.id, op.frame)
                next_plan += 1
            wake = plans[next_plan].due if next_plan < len(plans) else deadline
            for session, chain in chains.items():
                if session in busy or not chain:
                    continue
                if chain[0].due <= now:
                    op = chain.popleft()
                    waiting[op.id] = session
                    busy.add(session)
                    driver.send(op.conn, op.id, op.frame)
                else:
                    wake = min(wake, chain[0].due)
            for op_id in driver.wait(wake - driver.now()):
                session = waiting.pop(op_id, None)
                if session is not None:
                    busy.discard(session)
        driver.log.elapsed_s = driver.now()
        if driver.failure is not None:
            raise RuntimeError(f"load connection failed: {driver.failure}")
        return driver.log
    finally:
        driver.close()


def send_all(address: Tuple[str, int], ops: Sequence, time_limit: float = 120.0) -> PhaseLog:
    """Set-up ops (session opens, warm-up): closed loop, all answered."""
    return closed_loop(address, [iter([op for op in ops if op.conn == conn]) for conn in (0, 1)],
                       time_limit)
