"""Precomputed optimal-multicast tables (Theorem 2, closing note).

    "for a network with small k it may be desirable to precompute the
    dynamic programming table and annotate each entry in the table with the
    optimal schedule.  In this way, an optimal schedule can subsequently be
    found in constant time for any multicast in this network."

:class:`OptimalTable` realizes exactly that: given the *network* (the type
overheads, how many nodes of each type exist, and the latency), it fills the
entire DP table ``tau(s, i_1..i_k)`` for every source type ``s`` and every
count vector ``i <= n`` bottom-up.  Afterwards:

* :meth:`OptimalTable.completion` answers any multicast's optimal value in
  O(1) (a dict lookup);
* :meth:`OptimalTable.schedule_for` materializes an optimal schedule for a
  concrete :class:`~repro.core.multicast.MulticastSet` drawn from the
  network in time linear in the schedule size (the table stores the argmin
  choice per entry — the paper's "annotate each entry").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.core.dp import TypeSystem, _DPCore, box_states
from repro.core.dp_vector import _VectorCore, _buffers_from_lists, core_cls_for
from repro.core.multicast import MulticastSet
from repro.core.schedule import Schedule
from repro.exceptions import ReproError, SolverError
from repro.io.segments import read_snapshot, write_snapshot

__all__ = ["OptimalTable", "TABLE_SNAPSHOT_FORMAT"]

Counts = Tuple[int, ...]

#: Record format of on-disk DP table snapshots (see :meth:`OptimalTable.save_snapshot`).
TABLE_SNAPSHOT_FORMAT = "repro/table-snapshot-v1"


@dataclass(frozen=True)
class _NetworkSpec:
    """The network a table covers: type overheads + max count per type."""

    types: TypeSystem
    max_counts: Counts
    latency: float


class OptimalTable:
    """Full table of optimal multicast completions for one HNOW network.

    Parameters
    ----------
    type_overheads:
        The distinct workstation types as ``(o_send, o_receive)`` pairs.
    max_counts:
        ``n_j``: how many workstations of each type the network contains.
    latency:
        The network latency ``L``.
    backend:
        Recurrence engine: ``"scalar"``, ``"vector"`` or the default
        ``"auto"`` (the vectorized core for large heterogeneous boxes).
        Both engines are bit-identical — values, argmin choices,
        schedules *and* snapshot bytes — so the choice only affects build
        speed.
    """

    def __init__(
        self,
        type_overheads: Sequence[Tuple[float, float]],
        max_counts: Sequence[int],
        latency: float,
        *,
        backend: str = "auto",
    ) -> None:
        overheads = tuple(sorted(tuple(t) for t in type_overheads))
        if len(set(overheads)) != len(overheads):
            raise SolverError("type overheads must be distinct")
        if len(max_counts) != len(overheads):
            raise SolverError("max_counts must align with type_overheads")
        if any(c < 0 for c in max_counts):
            raise SolverError("max_counts must be non-negative")
        self.spec = _NetworkSpec(
            types=TypeSystem(overheads),
            max_counts=tuple(int(c) for c in max_counts),
            latency=latency,
        )
        core_cls = core_cls_for(
            backend,
            k=len(overheads),
            states=box_states(len(overheads), self.spec.max_counts),
        )
        self._core = core_cls(self.spec.types, latency)
        self._built = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> "OptimalTable":
        """Fill the whole table bottom-up (idempotent).

        The iterative :class:`_DPCore` fills the full
        ``sources x [0, max_counts]`` box in one densely packed pass.
        """
        if self._built:
            return self
        self._core.ensure(self.spec.max_counts)
        self._built = True
        return self

    def extended(self, max_counts: Sequence[int]) -> "OptimalTable":
        """A **new** built table grown to cover ``max_counts`` as well.

        Existing entries are copied into the larger box and only the new
        states are computed (see :meth:`_DPCore.extended_to`), so growth
        costs the margin rather than a rebuild — and the result is
        bit-identical (values, argmin choices, schedules) to building the
        larger box from scratch.  This table is left untouched, keeping
        concurrent readers of the cached table consistent.
        """
        counts = tuple(int(c) for c in max_counts)
        if len(counts) != self.spec.types.k:
            raise SolverError(
                f"expected {self.spec.types.k} counts, got {len(counts)}"
            )
        if any(c < 0 for c in counts):
            raise SolverError("max_counts must be non-negative")
        grown = tuple(max(c, m) for c, m in zip(counts, self.spec.max_counts))
        table = OptimalTable.__new__(OptimalTable)
        table.spec = replace(self.spec, max_counts=grown)
        table._core = self._core.extended_to(grown)
        table._built = True
        return table

    @property
    def entries(self) -> int:
        """Number of table entries currently materialized."""
        return self._core.states_filled

    # ------------------------------------------------------------------
    # snapshots (``repro/table-snapshot-v1``)
    # ------------------------------------------------------------------
    def save_snapshot(self, path: Union[str, Path]) -> Path:
        """Persist the built table as a ``repro/table-snapshot-v1`` file.

        The body holds, per source type, the three flat packed planes of
        the vectorized layout — ``float64`` values, ``int8`` first-child
        types, ``int64`` packed splits — always little-endian, so the
        bytes are identical no matter which engine built the table (the
        scalar core's list storage is converted on the way out).  Writing
        is atomic (temp file + rename); see
        :func:`repro.io.segments.write_snapshot`.
        """
        self.build()
        path = Path(path)
        core = self._core
        k = self.spec.types.k
        sections: List[Tuple[str, bytes]] = []
        for s in range(k):
            tau, ell, ysp = _core_planes(core, s)
            sections.append((f"tau-{s}", _plane_bytes(tau)))
            sections.append((f"ell-{s}", _plane_bytes(ell)))
            sections.append((f"ysplit-{s}", _plane_bytes(ysp)))
        header = {
            "format": TABLE_SNAPSHOT_FORMAT,
            "overheads": [list(t) for t in self.spec.types.overheads],
            "max_counts": list(self.spec.max_counts),
            "latency": self.spec.latency,
            "entries": core.states_filled,
            "endian": "little",
        }
        write_snapshot(path, header, sections)
        return path

    @classmethod
    def load_snapshot(cls, path: Union[str, Path]) -> "OptimalTable":
        """Attach a saved table zero-copy (fail-closed on any corruption).

        The snapshot body is mmap'ed and the planes are wrapped directly
        as the table's storage — no parsing, no copying, and every
        process attaching the same file shares one resident copy of the
        pages.  Integrity (header digest, exact length, body sha256) is
        verified by :func:`repro.io.segments.read_snapshot` before any
        entry is served; a truncated or bit-flipped file raises
        :class:`~repro.exceptions.ReproError`.
        """
        path = Path(path)
        snap = read_snapshot(path, expected_format=TABLE_SNAPSHOT_FORMAT)
        header = snap.header
        try:
            overheads = [tuple(t) for t in header["overheads"]]
            max_counts = tuple(int(c) for c in header["max_counts"])
            latency = header["latency"]
            entries = int(header["entries"])
        except (KeyError, TypeError, ValueError):
            raise ReproError(
                f"snapshot {path.name} is missing table metadata"
            ) from None
        if header.get("endian") != "little":
            raise ReproError(
                f"snapshot {path.name} has unsupported byte order"
            )  # pragma: no cover - written little-endian everywhere
        table = cls(overheads, max_counts, latency, backend="vector")
        k = table.spec.types.k
        if entries != box_states(k, max_counts):
            raise ReproError(f"snapshot {path.name} entry count is inconsistent")
        import numpy as np

        planes = [
            [np.frombuffer(snap.view(f"{name}-{s}"), dtype=dtype) for s in range(k)]
            for name, dtype in (("tau", "<f8"), ("ell", np.int8), ("ysplit", "<i8"))
        ]
        table._core = _VectorCore.from_flat(
            table.spec.types, latency, max_counts, *planes, owner=snap
        )
        table._built = True
        return table

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _check_counts(self, counts: Sequence[int]) -> Counts:
        counts = tuple(int(c) for c in counts)
        if len(counts) != self.spec.types.k:
            raise SolverError(
                f"expected {self.spec.types.k} counts, got {len(counts)}"
            )
        if any(c < 0 or c > m for c, m in zip(counts, self.spec.max_counts)):
            raise SolverError(
                f"counts {counts} outside network capacity {self.spec.max_counts}"
            )
        return counts

    def completion(self, source_type: int, counts: Sequence[int]) -> float:
        """Optimal ``R_T`` for a multicast from ``source_type`` to ``counts``.

        After :meth:`build` this is a dictionary lookup ("constant time" in
        the paper's phrasing).  Before :meth:`build`, missing entries are
        computed on demand and cached.
        """
        counts = self._check_counts(counts)
        if not 0 <= source_type < self.spec.types.k:
            raise SolverError(f"unknown source type {source_type}")
        return self._core.tau(source_type, counts)

    def schedule_for(self, mset: MulticastSet) -> Schedule:
        """An optimal schedule for a concrete multicast from this network.

        The multicast's type system must be a sub-system of the network's
        (every node's ``(o_send, o_receive)`` appears among the table types
        — note the *instance* may use fewer types than the network has).
        """
        if mset.latency != self.spec.latency:
            raise SolverError(
                f"instance latency {mset.latency} != table latency {self.spec.latency}"
            )
        table_keys = {key: t for t, key in enumerate(self.spec.types.overheads)}
        try:
            source_type = table_keys[mset.node(0).type_key]
        except KeyError:
            raise SolverError(
                f"source type {mset.node(0).type_key} not in the network"
            ) from None
        counts = [0] * self.spec.types.k
        for dest in mset.destinations:
            t = table_keys.get(dest.type_key)
            if t is None:
                raise SolverError(f"type {dest.type_key} not in the network")
            counts[t] += 1
        counts = self._check_counts(counts)
        # _bind_schedule works over the *instance's* type ids; build a small
        # shim multicast-view: the instance types may be a subset of the
        # table's, so translate via a counts vector in table-type space and
        # an index-pool in instance space keyed by table type ids.
        return _TableBinder(self._core, table_keys).bind(mset, source_type, counts)


def _core_planes(core, s: int):
    """The three flat packed planes of source type ``s`` (either engine).

    A scalar core's list-of-tuples choice storage converts to the flat
    ``(ell, ysplit)`` planes here — ``None`` becomes ``(-1, 0)`` exactly
    as the vector core stores it, so both engines snapshot to identical
    bytes.
    """
    if isinstance(core, _VectorCore):
        return core._tau[s], core._ell[s], core._ysplit[s]
    import numpy as np

    return _buffers_from_lists(np, core._tau[s], core._choice[s])


def _plane_bytes(plane) -> bytes:
    """Little-endian raw bytes of one numpy plane."""
    dtype = plane.dtype.newbyteorder("<")
    return plane.astype(dtype, copy=False).tobytes()


class _TableBinder:
    """Binds a table-typed optimal tree onto a concrete instance."""

    def __init__(self, core: _DPCore, table_keys: Dict[Tuple[float, float], int]):
        self.core = core
        self.table_keys = table_keys

    def bind(self, mset: MulticastSet, source_type: int, counts: Counts) -> Schedule:
        pools: Dict[int, List[int]] = {}
        for i, dest in enumerate(mset.destinations, start=1):
            pools.setdefault(self.table_keys[dest.type_key], []).append(i)
        for idxs in pools.values():
            idxs.reverse()
        children: Dict[int, List[int]] = {}

        def expand(node_index: int, node_type: int, node_counts: Counts) -> None:
            kids = self.core.typed_children(node_type, node_counts)
            bound: List[Tuple[int, int, Counts]] = []
            for child_type, child_counts in kids:
                child_index = pools[child_type].pop()
                bound.append((child_index, child_type, child_counts))
            if bound:
                children[node_index] = [b[0] for b in bound]
            for child_index, child_type, child_counts in bound:
                expand(child_index, child_type, child_counts)

        expand(0, source_type, tuple(counts))
        return Schedule(mset, children)
