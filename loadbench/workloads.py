"""Seeded operation streams for the three service workloads.

A workload turns ``(name, seed, window)`` into a :class:`Stream`: every
wire frame the generator will send, when each is due, on which of the two
connections, and what each answer must equal.  Nothing here touches a
server or a clock, so the same seed always yields byte-identical frames
(``test_workloads.py`` holds that).

Workloads:

``zipf-fleet``
    greedy traffic over a 4096-slot pool of bounded-ratio and pareto
    clusters, n log-uniform in [8, 1024], zipf popularity, some draws
    renamed or rescaled by 2^k; the plan store is on and pre-populated
    for part of the drawn slots.
``flash-dp``
    steady ``dp`` traffic on three k-type networks whose optimal tables
    are snapshotted in set-up, plus flash crowds (56 requests in 30 ms,
    every 2.5 s) on networks the server has never seen.
``churn-mix``
    16 group sessions streaming membership deltas, with a churn storm
    (every session brings in a fresh type at once) every 1.6 s, beside
    ``dp`` plan requests on the same networks; the plan store is on.

Every workload also runs group sessions, so the session and repair
layers always have some work.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import PlanRequest
from repro.core.dp import DEFAULT_MAX_STATES, box_states
from repro.core.multicast import MulticastSet
from repro.core.node import Node
from repro.core.repair import MembershipDelta, apply_delta
from repro.service import protocol
from repro.workloads.clusters import bounded_ratio_cluster, pareto_cluster
from repro.workloads.generator import multicast_from_cluster

#: asyncio's default ``StreamReader`` limit: the server's largest frame.
MAX_FRAME_BYTES = 64 * 1024

#: Share of ``--seconds`` spent in the open loop; the rest caps the
#: closed-loop capacity phase.
OPEN_SHARE = 0.75

#: Seed reserved for validating claims made with other seeds.
HELD_OUT_SEED = 7919

#: The fleet -- instance pool, networks, popularity ranks -- is fixed per
#: workload; the run seed drives the traffic over it (draws, mixes,
#: variants, arrival times, churn), so seeds differ in traffic, not in
#: what is being served.
FLEET = -1

_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Id stride of closed-loop replay cycles (above every stream id).
_CYCLE_IDS = 10_000_000


@dataclass(frozen=True)
class WorkloadSpec:
    """Load shape of one workload (rates are per second of window)."""

    name: str
    plan_rate: float
    sessions: int
    delta_rate: float
    #: seconds between churn storms (every session changes type at once;
    #: 0 for none)
    storm_every: float
    store: bool
    snapshots: bool
    #: plan requests sent back to back before the window (caches fill)
    warmup: int


SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="zipf-fleet",
            plan_rate=70.0,
            sessions=8,
            delta_rate=10.0,
            storm_every=0.0,
            store=True,
            snapshots=False,
            warmup=1500,
        ),
        WorkloadSpec(
            name="flash-dp",
            plan_rate=300.0,
            sessions=8,
            delta_rate=10.0,
            storm_every=0.0,
            store=False,
            snapshots=True,
            warmup=600,
        ),
        WorkloadSpec(
            name="churn-mix",
            plan_rate=200.0,
            sessions=16,
            delta_rate=10.0,
            storm_every=1.6,
            store=True,
            snapshots=False,
            warmup=300,
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One wire operation of the stream.

    ``due`` is seconds after the window opens (``None`` for set-up ops
    sent before it); ``ref`` names the request whose direct-planner
    answer the response must equal; ``session``/``seq`` chain a session's
    deltas so each waits for the previous acknowledgement.
    """

    id: int
    due: Optional[float]
    conn: int
    kind: str
    frame: bytes
    ref: str
    session: Optional[str] = None
    seq: int = 0


@dataclass
class Stream:
    """Everything one run sends, plus what the answers must be."""

    workload: str
    seed: int
    window_s: float
    setup_ops: List[Op]
    ops: List[Op]
    #: ref -> the request whose direct answer a response must equal
    references: Dict[str, PlanRequest]
    #: refs of plan requests (their served value enters makespan_over_lb)
    plan_refs: List[str]
    #: refs pre-written to the plan store in set-up
    store_refs: List[str] = field(default_factory=list)
    #: canonical sample instances whose networks get table snapshots
    snapshot_networks: List[Tuple[MulticastSet, Tuple[int, ...]]] = field(
        default_factory=list
    )

    def frames_digest(self) -> str:
        """sha256 over every frame, in send order (determinism check)."""
        import hashlib

        digest = hashlib.sha256()
        for op in (*self.setup_ops, *self.ops, *self.replay_cycle(0)):
            digest.update(repr((op.id, op.due, op.conn, op.kind, op.ref)).encode())
            digest.update(op.frame)
        return digest.hexdigest()

    def replay_cycle(self, cycle: int) -> List[Op]:
        """The window re-sent for the closed loop, as cycle ``cycle``.

        Plans keep their bytes but get fresh ids; sessions are re-opened
        under new ids (``g3`` -> ``g3c0``) and stream the same deltas, so
        every replayed answer has the same reference as the original.
        """
        base = (cycle + 1) * _CYCLE_IDS
        out = []
        for op in (*(o for o in self.setup_ops if o.kind == "open"), *self.ops):
            frame = op.frame.replace(b'"id": %d,' % op.id, b'"id": %d,' % (base + op.id), 1)
            session = op.session
            if session is not None:
                session = f"{session}c{cycle}"
                frame = frame.replace(
                    b'"session": "%s"' % op.session.encode(),
                    b'"session": "%s"' % session.encode(),
                    1,
                )
            out.append(Op(base + op.id, None, op.conn, op.kind, frame, op.ref, session, op.seq))
        return out


# ----------------------------------------------------------------------
# instance helpers
# ----------------------------------------------------------------------
def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


def _poisson_times(rng: random.Random, rate: float, start: float, end: float) -> List[float]:
    times = []
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            return times
        times.append(t)


def _variant(mset: MulticastSet, kind: str, token: str, shift: int) -> MulticastSet:
    """An equivalent instance: renamed nodes, or overheads scaled by 2**shift."""
    if kind == "rename":
        def node(nd: Node) -> Node:
            return Node(f"{token}{nd.name}", nd.send_overhead, nd.receive_overhead)

        return MulticastSet(
            node(mset.source), [node(d) for d in mset.destinations], mset.latency
        )
    if kind == "rescale":
        def scaled(nd: Node) -> Node:
            return Node(
                nd.name,
                math.ldexp(float(nd.send_overhead), shift),
                math.ldexp(float(nd.receive_overhead), shift),
            )

        return MulticastSet(
            scaled(mset.source),
            [scaled(d) for d in mset.destinations],
            math.ldexp(float(mset.latency), shift),
        )
    return mset


def _network_types(rng: random.Random, k: int) -> Tuple[Tuple[int, int], ...]:
    """``k`` correlated (o_send, o_receive) types: both strictly increasing."""
    sends = sorted(rng.sample(range(4, 41), k))
    types = []
    prev = 0
    for send in sends:
        recv = max(round(send * rng.uniform(1.05, 1.85)), prev + 1)
        types.append((send, recv))
        prev = recv
    return tuple(types)


@dataclass(frozen=True)
class Network:
    """A k-type workstation network (Theorem 2's regime).

    ``cap`` bounds the destinations of each type a request draws, which
    bounds the optimal table (``k * (cap + 1) ** k`` states) the network
    needs.
    """

    label: str
    types: Tuple[Tuple[int, int], ...]
    latency: int
    cap: int

    def instance(
        self, source_type: int, counts: Sequence[int], prefix: str = "d"
    ) -> MulticastSet:
        send, recv = self.types[source_type]
        dests = [
            Node(f"{prefix}{i}", *self.types[t])
            for i, t in enumerate(t for t, count in enumerate(counts) for _ in range(count))
        ]
        return MulticastSet(Node("src", send, recv), dests, self.latency)


def _network(rng: random.Random, label: str, k: int, cap: int) -> Network:
    return Network(label, _network_types(rng, k), rng.randint(1, 4), cap)


def _mix(rng: random.Random, network: Network) -> Tuple[int, ...]:
    """Destination counts with every type present, each at most the cap."""
    return tuple(rng.randint(1, network.cap) for _ in network.types)


# ----------------------------------------------------------------------
# stream assembly
# ----------------------------------------------------------------------
class _Builder:
    def __init__(self, workload: str, seed: int, window_s: float) -> None:
        self.workload = workload
        self.seed = seed
        self.window_s = window_s
        self.next_id = 1
        self.references: Dict[str, PlanRequest] = {}
        self.plan_refs: List[str] = []
        self.setup_ops: List[Op] = []
        self.ops: List[Op] = []

    def take_id(self) -> int:
        value = self.next_id
        self.next_id += 1
        return value

    def plan(
        self, due: Optional[float], conn: int, client: str, ref: str, request: PlanRequest
    ) -> None:
        """Queue a plan request; ``due=None`` makes it a warm-up request."""
        self.references.setdefault(ref, request)
        op_id = self.take_id()
        frame = protocol.encode(protocol.plan_message(request, id=op_id, client=client))
        op = Op(op_id, due, conn, "plan", frame, ref)
        if due is None:
            self.setup_ops.append(op)
        else:
            self.plan_refs.append(ref)
            self.ops.append(op)

    def finish(self) -> None:
        """Order the window by due time."""
        self.ops.sort(key=lambda op: (op.due, op.id))

    def stream(self, **extra) -> Stream:
        return Stream(
            workload=self.workload,
            seed=self.seed,
            window_s=self.window_s,
            setup_ops=self.setup_ops,
            ops=self.ops,
            references=self.references,
            plan_refs=self.plan_refs,
            **extra,
        )


class _Session:
    """A member list over one network, churned by seeded deltas.

    Joins and leaves keep every network type present and each type at
    most the network's cap; a type-changing delta brings in one member of
    a fresh, larger type (a join, later a handover to another fresh
    type), so each one lands on a network no table covers yet.
    """

    def __init__(self, sid: str, network: Network, rng: random.Random) -> None:
        self.sid = sid
        self.network = network
        k = len(network.types)
        self.mset = network.instance(rng.randrange(k), _mix(rng, network), prefix=f"{sid}m")
        self.uid = self.mset.n
        self.odd: Optional[str] = None  # name of the member of an extra type

    def fresh(self, template: Tuple[float, float]) -> Node:
        self.uid += 1
        return Node(f"{self.sid}m{self.uid}", *template)

    def delta(self, rng: random.Random, seq: int, type_change: bool) -> MembershipDelta:
        mset = self.mset
        if type_change:
            top_send, top_recv = max(self.network.types)
            odd = self.fresh((top_send + rng.randint(1, 40), top_recv + rng.randint(41, 80)))
            previous, self.odd = self.odd, odd.name
            if previous is None:
                return MembershipDelta(seq=seq, joins=(odd,))
            return MembershipDelta(seq=seq, handovers=((previous, odd),))
        per_type: Dict[Tuple[float, float], int] = {t: 0 for t in self.network.types}
        for d in mset.destinations:
            if d.name != self.odd:
                per_type[d.type_key] += 1
        movable = [
            d for d in mset.destinations
            if d.name != self.odd and per_type[d.type_key] > 1
        ]
        joinable = [t for t, count in per_type.items() if count < self.network.cap]
        ops = ["handover"] * 3
        if joinable:
            ops += ["join"] * 8
        if movable:
            ops += ["leave"] * 8
        op = rng.choice(ops)
        if op == "join":
            return MembershipDelta(seq=seq, joins=(self.fresh(rng.choice(joinable)),))
        if op == "leave":
            return MembershipDelta(seq=seq, leaves=(rng.choice(movable).name,))
        victim = rng.choice([d for d in mset.destinations if d.name != self.odd])
        return MembershipDelta(
            seq=seq, handovers=((victim.name, self.fresh(victim.type_key)),)
        )


def _open_session(b: _Builder, sid: str, mset: MulticastSet, conn: int) -> None:
    request = PlanRequest(instance=mset, solver="dp")
    ref = f"{sid}:0"
    b.references[ref] = request
    op_id = b.take_id()
    frame = protocol.encode(
        protocol.session_open_message(request, id=op_id, client="sessions", session=sid)
    )
    b.setup_ops.append(Op(op_id, None, conn, "open", frame, ref, sid, 0))


def _add_sessions(
    b: _Builder, spec: WorkloadSpec, networks: Sequence[Network], conn: int
) -> None:
    """Open ``spec.sessions`` sessions in set-up and churn them in the window.

    Each network first gets an idle anchor session holding every type at
    its cap, so the network's table is built whole in set-up and churn
    inside the network repairs from it without growing it.
    """
    for index, network in enumerate(networks[: spec.sessions]):
        anchor = network.instance(0, [network.cap] * len(network.types), prefix="a")
        _open_session(b, f"a{index}", anchor, conn)
    storms = []
    if spec.storm_every:
        t = 1.25
        while t < b.window_s - 0.1:
            storms.append(t)
            t += spec.storm_every
    rng = _rng(b.workload, b.seed, "sessions")
    for index in range(spec.sessions):
        sid = f"g{index}"
        session = _Session(sid, networks[index % len(networks)], rng)
        _open_session(b, sid, session.mset, conn)
        # a storm delta is due within 5 ms of the storm and changes type
        times = sorted(
            [(due, False) for due in _poisson_times(rng, spec.delta_rate, 0.0, b.window_s)]
            + [(t + rng.uniform(0.0, 0.005), True) for t in storms]
        )
        for seq, (due, storm) in enumerate(times, start=1):
            delta = session.delta(rng, seq, storm)
            session.mset = apply_delta(session.mset, delta)
            ref = f"{sid}:{seq}"
            b.references[ref] = PlanRequest(instance=session.mset, solver="dp")
            op_id = b.take_id()
            frame = protocol.encode(
                protocol.session_delta_message(sid, delta, id=op_id, client="sessions")
            )
            b.ops.append(Op(op_id, due, conn, "delta", frame, ref, sid, seq))


def _session_networks(rng: random.Random, count: int) -> List[Network]:
    return [_network(rng, f"s{i}", 2, 12) for i in range(count)]


def _systematic(rng: random.Random, cumulative: Sequence[float], count: int) -> List[int]:
    """``count`` slot draws whose per-slot counts match the popularity
    shares to within one: one seeded offset picks which tail slots come
    up, then the order is shuffled.  I.i.d. draws would let a seed shift
    the share of the few big slots and with it the whole latency
    distribution."""
    offset = rng.random()
    total = cumulative[-1]
    picks = [bisect.bisect_left(cumulative, (i + offset) / count * total) for i in range(count)]
    rng.shuffle(picks)
    return picks


def _zipf_fleet(b: _Builder, spec: WorkloadSpec) -> Stream:
    pool = 4096
    zipf_s = 1.0
    cumulative = list(itertools.accumulate(1.0 / r**zipf_s for r in range(1, pool + 1)))
    rng = _rng(b.workload, b.seed, "draws")
    slots: Dict[int, MulticastSet] = {}

    def slot(index: int) -> MulticastSet:
        found = slots.get(index)
        if found is None:
            r = _rng(b.workload, FLEET, f"slot{index}")
            u = (index + 1) * _PHI % 1.0 + r.uniform(-0.02, 0.02)
            n = min(1024, max(8, round(8 * 128 ** min(1.0, max(0.0, u)))))
            cluster_seed = r.randrange(2**31)
            if r.random() < 0.3:
                nodes = pareto_cluster(n + 1, cluster_seed, prefix="w")
            else:
                nodes = bounded_ratio_cluster(n + 1, cluster_seed, prefix="w")
            policy = r.choice(("slowest", "fastest", "median", "random"))
            found = slots[index] = multicast_from_cluster(
                nodes, source=policy, seed=cluster_seed
            )
        return found

    drawn: List[str] = []

    def draw(rng: random.Random, index: int, token: str) -> str:
        if rng.random() < 0.15:
            solver, bounds = "greedy", True
        else:
            solver, bounds = "greedy+reversal", False
        roll = rng.random()
        kind = "rename" if roll < 0.1 else "rescale" if roll < 0.2 else "base"
        shift = rng.choice((-3, -2, -1, 1, 2, 3))
        variant = f"{kind}{token}" if kind != "base" else "base"
        ref = f"slot{index}:{variant}:{solver}:{int(bounds)}"
        if ref not in b.references:
            mset = _variant(slot(index), kind, token, shift)
            b.references[ref] = PlanRequest(
                instance=mset, solver=solver, include_bounds=bounds
            )
            if kind == "base" and solver == "greedy+reversal":
                drawn.append(ref)
        return ref

    warm = _rng(b.workload, b.seed, "warmup")
    for i, index in enumerate(_systematic(warm, cumulative, spec.warmup)):
        ref = draw(warm, index, f"w{i}")
        b.plan(None, i % 2, "fleet", ref, b.references[ref])
    dues = _poisson_times(rng, spec.plan_rate, 0.0, b.window_s)
    for i, (due, index) in enumerate(zip(dues, _systematic(rng, cumulative, len(dues)))):
        ref = draw(rng, index, f"r{i}")
        b.plan(due, i % 2, "fleet", ref, b.references[ref])
    # the store holds the drawn base greedy+reversal requests of a fixed
    # 40% of the slots (part of the fleet, so no seed moves a big slot in
    # or out of it)
    store_refs = [
        ref for ref in drawn
        if _rng(b.workload, FLEET, "store-" + ref.split(":")[0]).random() < 0.4
    ]
    networks = _session_networks(_rng(b.workload, FLEET, "session-networks"), spec.sessions)
    _add_sessions(b, spec, networks, conn=1)
    b.finish()
    return b.stream(store_refs=store_refs)


def _dp_request(
    rng: random.Random, network: Network, token: str, bounds_share: float
) -> PlanRequest:
    k = len(network.types)
    mset = network.instance(rng.randrange(k), _mix(rng, network))
    roll = rng.random()
    if roll < 0.1:
        mset = _variant(mset, "rename", token, 0)
    elif roll < 0.2:
        mset = _variant(mset, "rescale", token, rng.choice((-2, -1, 1, 2)))
    return PlanRequest(instance=mset, solver="dp", include_bounds=rng.random() < bounds_share)


def _flash_dp(b: _Builder, spec: WorkloadSpec) -> Stream:
    net_rng = _rng(b.workload, FLEET, "networks")
    steady = [
        _network(net_rng, f"n{i}", k, cap) for i, (k, cap) in enumerate(((2, 24), (3, 8), (3, 8)))
    ]
    warm = _rng(b.workload, b.seed, "warmup")
    for i in range(spec.warmup):
        network = steady[warm.randrange(len(steady))]
        b.plan(None, i % 2, "steady", f"warm{i}", _dp_request(warm, network, f"w{i}", 0.2))
    rng = _rng(b.workload, b.seed, "steady")
    for draw, due in enumerate(_poisson_times(rng, spec.plan_rate, 0.0, b.window_s)):
        network = steady[rng.randrange(len(steady))]
        request = _dp_request(rng, network, f"r{draw}", 0.2)
        b.plan(due, 0, "steady", f"steady{draw}", request)
    crowd_rng = _rng(b.workload, b.seed, "crowds")
    start = 1.0
    crowd = 0
    while start < b.window_s - 0.1:
        network = _network(net_rng, f"c{crowd}", 2, 16)
        size = 56
        dues = sorted(start + crowd_rng.uniform(0.0, 0.03) for _ in range(size))
        earlier: List[str] = []
        # the crowd's groups grow at fixed points -- one table build and
        # two extensions per crowd -- and stay inside the table otherwise
        growth = {0: network.cap // 4, size // 3: network.cap // 2, 2 * size // 3: network.cap}
        box = 0
        for i, due in enumerate(dues):
            roll = crowd_rng.random()
            # rescale only unscaled requests: a rescale that lands back on
            # the integer overheads would be value-equal but not byte-equal
            # to an earlier request, which the service's hit path does not
            # tell apart (int vs float on the wire)
            unscaled = [r for r in earlier if isinstance(b.references[r].instance.latency, int)]
            if i in growth:
                box = growth[i]
                counts = [box] * len(network.types)
            elif roll < 0.25:
                ref = crowd_rng.choice(earlier)  # identical request
                b.plan(due, 1, f"crowd{crowd}", ref, b.references[ref])
                continue
            elif roll < 0.4 and unscaled:
                base = b.references[crowd_rng.choice(unscaled)].instance
                mset = _variant(base, "rescale", "", crowd_rng.choice((-1, 1, 2)))
                counts = None
            else:
                counts = [crowd_rng.randint(1, box) for _ in network.types]
            if counts is not None:
                mset = network.instance(crowd_rng.randrange(len(network.types)), counts)
            ref = f"crowd{crowd}:{i}"
            earlier.append(ref)
            b.plan(due, 1, f"crowd{crowd}", ref, PlanRequest(instance=mset, solver="dp"))
        crowd += 1
        start += 2.5
    # tables of the steady networks are snapshotted in set-up, sized to
    # the largest mix the steady traffic can draw
    snapshots = [
        (network.instance(0, [1] * len(network.types)), (network.cap,) * len(network.types))
        for network in steady
    ]
    sessions = _session_networks(_rng(b.workload, FLEET, "session-networks"), spec.sessions)
    _add_sessions(b, spec, sessions, conn=1)
    b.finish()
    return b.stream(snapshot_networks=snapshots)


def _churn_mix(b: _Builder, spec: WorkloadSpec) -> Stream:
    net_rng = _rng(b.workload, FLEET, "networks")
    networks = [_network(net_rng, f"n{i}", 2, 12) for i in range(4)]
    warm = _rng(b.workload, b.seed, "warmup")
    for i in range(spec.warmup):
        network = networks[warm.randrange(len(networks))]
        b.plan(None, i % 2, "plans", f"warm{i}", _dp_request(warm, network, f"w{i}", 0.2))
    rng = _rng(b.workload, b.seed, "plans")
    for draw, due in enumerate(_poisson_times(rng, spec.plan_rate, 0.0, b.window_s)):
        network = networks[rng.randrange(len(networks))]
        request = _dp_request(rng, network, f"r{draw}", 0.2)
        b.plan(due, 0, "plans", f"plan{draw}", request)
    _add_sessions(b, spec, networks, conn=1)
    b.finish()
    return b.stream()


_BUILDERS = {
    "zipf-fleet": _zipf_fleet,
    "flash-dp": _flash_dp,
    "churn-mix": _churn_mix,
}


def build_stream(workload: str, seed: int, seconds: float) -> Stream:
    """The operation stream of one run: same arguments, same bytes."""
    if workload not in SPECS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(SPECS)}")
    window = seconds * OPEN_SHARE
    stream = _BUILDERS[workload](_Builder(workload, seed, window), SPECS[workload])
    for request in stream.references.values():
        if request.solver == "dp" and box_states(
            request.instance.num_types, request.instance.destination_type_counts()
        ) > DEFAULT_MAX_STATES:
            raise ValueError("a generated dp request exceeds the state budget")
    return stream
