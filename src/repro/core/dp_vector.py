"""Vectorized backend for the Section 4 dynamic program.

The scalar engine in :mod:`repro.core.dp` walks every split candidate of
every count-state with a Python loop.  The mixed-radix packed layout makes
a much stronger statement possible: for a fixed state ``(s, i)`` and first
child type ``l``, the Lemma 4 candidates form a *dense sub-box* of the
table —

* the subtree term reads ``tau(l, y)`` over the box
  ``0 <= y_j <= i_j  (y_l <= i_l - 1)``, and
* the rest term reads ``tau(s, i - y - e_l)``, the same box traversed with
  every axis reversed (``base - y`` for ``base = i - e_l``).

Both are therefore *strided slices* of the flat per-source table, and the
whole inner minimization collapses to ``argmin(maximum(A + c1, B + c2))``
over two array views — one vector expression per ``(state, l, s)`` instead
of ``O(prod i_j)`` interpreted steps, evaluated by numpy's C kernels.
numpy is imported on first use, not with this module, so planning paths
that never build a large table (greedy traffic, small boxes, service
startup) never load it.

Bit-identity with the scalar engine is a hard contract, not an aspiration:

* IEEE-754 ``+`` / ``max`` / comparisons are identical between Python
  floats and ``float64`` arrays;
* ``numpy.argmin`` returns the *first* minimum in logical C order, and the
  slab views are transposed so that logical order equals the scalar scan
  order (dimensions ascending, last dimension fastest);
* ties across first-child types resolve by strict improvement in ``l``
  order, exactly as the scalar loop does.

So values, argmin splits, reconstructed schedules and ``states_computed``
all match the scalar DP bit for bit (asserted over the conformance corpus
and by a Hypothesis property suite).

The flat choice storage (``int8`` first-child type + ``int64`` packed
split per entry) doubles as the on-disk layout of
``repro/table-snapshot-v1`` records (:mod:`repro.core.dp_table`), which is
what makes zero-copy mmap attach possible: a snapshot *is* a
:class:`_VectorCore` whose buffers happen to live in the page cache.

Backend selection rides the solver-spec grammar — ``dp(backend=vector)``,
``dp(backend=scalar)``, or the default ``dp(backend=auto)`` which picks
the vectorized engine for large heterogeneous boxes (the choice is
unobservable in outputs, by the identity contract above).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.dp import (
    DEFAULT_MAX_STATES,
    DPSolution,
    TypeSystem,
    _DPCore,
    _solve_with_core_cls,
    estimated_states,
)
from repro.core.multicast import MulticastSet
from repro.exceptions import SolverError

__all__ = [
    "DP_BACKENDS",
    "AUTO_VECTOR_MIN_STATES",
    "resolve_backend",
    "solve_dp_vector",
    "solve_dp_backend",
]

Counts = Tuple[int, ...]

#: Accepted values for the ``dp`` solver's ``backend`` option.
DP_BACKENDS = ("auto", "scalar", "vector")

#: ``backend=auto`` keeps the scalar engine below this box size: tiny
#: boxes are dominated by per-slab dispatch overhead, not element work.
AUTO_VECTOR_MIN_STATES = 2048


# ----------------------------------------------------------------------
# flat buffer construction helpers
# ----------------------------------------------------------------------
def _buffers_from_lists(np, tau_list, choice_list):
    """Convert one source type's list-based tables to flat typed buffers.

    ``None`` choices (the zero state) become ``(-1, 0)`` so the packed
    layout is fully determined — snapshots of scalar-built and
    vector-built tables are byte-identical.
    """
    return (
        np.array(tau_list, dtype=np.float64),
        np.array([-1 if c is None else c[0] for c in choice_list], dtype=np.int8),
        np.array([0 if c is None else c[1] for c in choice_list], dtype=np.int64),
    )


def _zero_buffers(np, k: int, size: int):
    tau = [np.zeros(size, dtype=np.float64) for _ in range(k)]
    ell = [np.full(size, -1, dtype=np.int8) for _ in range(k)]
    ysp = [np.zeros(size, dtype=np.int64) for _ in range(k)]
    return tau, ell, ysp


# ----------------------------------------------------------------------
# the slab fills
# ----------------------------------------------------------------------
def _fill_general_numpy(
    np,
    k: int,
    size: int,
    max_counts: Counts,
    strides: Sequence[int],
    sends: Sequence[float],
    recvs: Sequence[float],
    L: float,
    tau,
    ell_out,
    y_out,
    skip_inside: Optional[Counts] = None,
) -> None:
    """Bottom-up fill evaluating each state's whole split slab at once.

    Mirrors ``_DPCore._fill_general`` state for state; only the inner
    candidate scan is replaced by array expressions.  The per-source flat
    tables are viewed as ND grids with axis order ``(dim k-1, .., dim 0)``
    (C order over the packed encoding, dimension 0 fastest in memory);
    ``.T`` flips a slab to logical order ``(dim 0, .., dim k-1)`` so that
    ``argmin``'s flattened first-minimum index enumerates candidates in
    exactly the scalar scan order.
    """
    inf = float("inf")
    shape = tuple(max_counts[j] + 1 for j in reversed(range(k)))
    grids = [tau[s].reshape(shape) for s in range(k)]
    rev = tuple(reversed(range(k)))
    digits = [0] * k
    for code in range(1, size):
        for j in range(k):
            if digits[j] < max_counts[j]:
                digits[j] += 1
                break
            digits[j] = 0
        if skip_inside is not None and all(
            d <= m for d, m in zip(digits, skip_inside)
        ):
            continue
        # per first-child type: the split slab as a pair of ND views
        # (subtree box, and the same box axis-reversed for the rest term)
        avail = []
        for ell in range(k):
            c_ell = digits[ell]
            if c_ell < 1:
                continue
            lims = [c_ell if j == ell else digits[j] + 1 for j in range(k)]
            sub = tuple(slice(0, lims[j]) for j in rev)
            bd = [digits[j] - (1 if j == ell else 0) for j in range(k)]
            restsub = tuple(slice(bd[j], None, -1) for j in rev)
            avail.append((ell, lims, sub, restsub))
        for s in range(k):
            S_s = sends[s]
            rest_grid = grids[s]
            best = inf
            best_ell = -1
            best_y = 0
            for ell, lims, sub, restsub in avail:
                first_fixed = S_s + L + recvs[ell]
                slab = np.maximum(
                    grids[ell][sub].T + first_fixed,
                    rest_grid[restsub].T + S_s,
                )
                flat = int(slab.argmin())
                v = slab.flat[flat]
                if v < best:
                    best = v
                    best_ell = ell
                    # mixed-radix decode of the logical flat index back to
                    # a packed split code (last dimension fastest)
                    ycode = 0
                    for j in range(k - 1, -1, -1):
                        flat, d = divmod(flat, lims[j])
                        ycode += d * strides[j]
                    best_y = ycode
            tau[s][code] = best
            ell_out[s][code] = best_ell
            y_out[s][code] = best_y


# ----------------------------------------------------------------------
# the core
# ----------------------------------------------------------------------
class _VectorCore(_DPCore):
    """`_DPCore` with flat typed storage and slab-at-a-time evaluation.

    Same packed encoding, same queries, same growth semantics — only the
    storage (``float64`` values plus ``int8``/``int64`` choice planes
    instead of Python lists of tuples) and the inner scan differ.  The
    buffers satisfy the buffer protocol, so a core can equally be backed
    by freshly computed arrays or by read-only views into an mmap'ed
    ``repro/table-snapshot-v1`` body.
    """

    def __init__(self, types: TypeSystem, latency: float) -> None:
        super().__init__(types, latency)
        self._ell: list = []
        self._ysplit: list = []
        #: Keep-alive for snapshot-attached buffers (the mmap object).
        self._buffers_owner = None

    @classmethod
    def from_flat(
        cls,
        types: TypeSystem,
        latency: float,
        max_counts: Counts,
        tau,
        ell,
        ysplit,
        owner=None,
    ) -> "_VectorCore":
        """Wrap pre-existing flat buffers (one of each per source type).

        This is the zero-copy attach path: ``owner`` (typically the mmap)
        is held for the core's lifetime so views stay valid.
        """
        core = cls(types, latency)
        strides: List[int] = []
        size = 1
        for c in max_counts:
            strides.append(size)
            size *= c + 1
        k = types.k
        if not (len(tau) == len(ell) == len(ysplit) == k):
            raise SolverError("flat table buffers must have one plane per type")
        for s in range(k):
            if len(tau[s]) != size or len(ell[s]) != size or len(ysplit[s]) != size:
                raise SolverError(
                    f"flat table plane {s} does not match box size {size}"
                )
        core._max = tuple(max_counts)
        core._strides = tuple(strides)
        core._size = size
        core._tau = list(tau)
        core._ell = list(ell)
        core._ysplit = list(ysplit)
        core.states_filled = k * size
        core._buffers_owner = owner
        return core

    # ------------------------------------------------------------------
    # construction (overrides)
    # ------------------------------------------------------------------
    def extended_to(self, new_max: Counts) -> "_VectorCore":
        if self._max is None:
            core = _VectorCore(self.types, self.latency)
            core._build(tuple(new_max))
            return core
        if any(n < m for n, m in zip(new_max, self._max)):
            raise SolverError(
                f"cannot shrink a DP table from {self._max} to {tuple(new_max)}"
            )
        core = _VectorCore(self.types, self.latency)
        core._grow_from(self, tuple(new_max))
        return core

    def _adopt(self, core: "_VectorCore") -> None:
        self._max = core._max
        self._strides = core._strides
        self._size = core._size
        self._tau = core._tau
        self._ell = core._ell
        self._ysplit = core._ysplit
        self.states_filled = core.states_filled
        self._buffers_owner = core._buffers_owner

    def _build(self, max_counts: Counts) -> None:
        ts = self.types
        k = ts.k
        L = self.latency
        strides: List[int] = []
        size = 1
        for c in max_counts:
            strides.append(size)
            size *= c + 1
        sends = [ts.send(t) for t in range(k)]
        recvs = [ts.receive(t) for t in range(k)]
        import numpy as np

        if k == 1:
            # the homogeneous early-exit scan is already amortized O(n);
            # run it on plain lists and convert to the flat layout
            tau_list = [0.0] * size
            choice_list: List[Optional[Tuple[int, int]]] = [None] * size
            _DPCore._fill_homogeneous(
                size, sends[0], recvs[0], L, tau_list, choice_list
            )
            t, e, y = _buffers_from_lists(np, tau_list, choice_list)
            tau, ell, ysp = [t], [e], [y]
        else:
            tau, ell, ysp = _zero_buffers(np, k, size)
            _fill_general_numpy(np, k, size, max_counts, strides, sends, recvs, L, tau, ell, ysp)
        self._max = tuple(max_counts)
        self._strides = tuple(strides)
        self._size = size
        self._tau = tau
        self._ell = ell
        self._ysplit = ysp
        self.states_filled = k * size
        self._buffers_owner = None

    def _grow_from(self, old: "_VectorCore", new_max: Counts) -> None:
        ts = self.types
        k = ts.k
        L = self.latency
        old_max = old._max
        assert old_max is not None
        strides: List[int] = []
        size = 1
        for c in new_max:
            strides.append(size)
            size *= c + 1
        sends = [ts.send(t) for t in range(k)]
        recvs = [ts.receive(t) for t in range(k)]
        import numpy as np

        if k == 1:
            tau_list = [float(v) for v in old._tau[0]]
            tau_list.extend([0.0] * (size - old._size))
            choice_list: List[Optional[Tuple[int, int]]] = [None] * size
            for code in range(1, old._size):
                choice_list[code] = (int(old._ell[0][code]), int(old._ysplit[0][code]))
            _DPCore._fill_homogeneous(
                size, sends[0], recvs[0], L, tau_list, choice_list, start=old._size
            )
            t, e, y = _buffers_from_lists(np, tau_list, choice_list)
            tau, ell, ysp = [t], [e], [y]
        else:
            tau, ell, ysp = _zero_buffers(np, k, size)
            old_strides = old._strides
            new_shape = tuple(new_max[j] + 1 for j in reversed(range(k)))
            old_shape = tuple(old_max[j] + 1 for j in reversed(range(k)))
            prefix = tuple(slice(0, old_max[j] + 1) for j in reversed(range(k)))
            for s in range(k):
                old_tau = np.frombuffer(old._tau[s], dtype=np.float64)
                old_ell = np.frombuffer(old._ell[s], dtype=np.int8)
                old_y = np.frombuffer(old._ysplit[s], dtype=np.int64)
                tau[s].reshape(new_shape)[prefix] = old_tau.reshape(old_shape)
                ell[s].reshape(new_shape)[prefix] = old_ell.reshape(old_shape)
                # argmin splits re-packed from the old strides to the new
                # (same divmod chain as the scalar grow, vectorized)
                rem = old_y.copy()
                y_new = np.zeros_like(rem)
                for j in range(k - 1, 0, -1):
                    d, rem = np.divmod(rem, old_strides[j])
                    y_new += d * strides[j]
                y_new += rem
                ysp[s].reshape(new_shape)[prefix] = y_new.reshape(old_shape)
            _fill_general_numpy(
                np, k, size, new_max, strides, sends, recvs, L, tau, ell, ysp,
                skip_inside=old_max,
            )
        self._max = tuple(new_max)
        self._strides = tuple(strides)
        self._size = size
        self._tau = tau
        self._ell = ell
        self._ysplit = ysp
        self.states_filled = k * size
        self._buffers_owner = None

    # ------------------------------------------------------------------
    # queries (overrides)
    # ------------------------------------------------------------------
    def tau(self, s: int, counts: Counts) -> float:
        self.ensure(counts)
        return float(self._tau[s][self._pack(counts)])

    def typed_children(self, s: int, counts: Counts) -> List[Tuple[int, Counts]]:
        self.ensure(counts)
        out: List[Tuple[int, Counts]] = []
        code = self._pack(counts)
        ells = self._ell[s]
        ys = self._ysplit[s]
        strides = self._strides
        while code:
            ell = int(ells[code])
            assert ell >= 0
            ycode = int(ys[code])
            out.append((ell, self._unpack(ycode)))
            code = code - ycode - strides[ell]
        return out


# ----------------------------------------------------------------------
# solving and backend dispatch
# ----------------------------------------------------------------------
def solve_dp_vector(
    mset: MulticastSet, *, max_states: int = DEFAULT_MAX_STATES
) -> DPSolution:
    """:func:`repro.core.dp.solve_dp` on the vectorized engine.

    Same guard rail, same reconstruction check, bit-identical output —
    only the table fill runs slab-at-a-time.
    """
    return _solve_with_core_cls(_VectorCore, mset, max_states)


def resolve_backend(backend: str, *, k: int = 0, states: int = 0) -> str:
    """Resolve a requested ``dp`` backend to ``scalar`` or ``vector``.

    ``auto`` picks the vectorized engine only where it wins: general-``k``
    boxes of at least :data:`AUTO_VECTOR_MIN_STATES` states.  Homogeneous
    (``k == 1``) instances always use the scalar closed-form scan — it is
    already amortized O(n) and both backends share it.  Because the
    engines are bit-identical, the resolution is unobservable in planner
    outputs, caches and stores.
    """
    if backend not in DP_BACKENDS:
        raise SolverError(
            f"unknown dp backend {backend!r}; expected one of {', '.join(DP_BACKENDS)}"
        )
    if backend != "auto":
        return backend
    if k == 1:
        return "scalar"
    if states and states < AUTO_VECTOR_MIN_STATES:
        return "scalar"
    return "vector"


def solve_dp_backend(
    mset: MulticastSet,
    *,
    backend: str = "auto",
    max_states: int = DEFAULT_MAX_STATES,
) -> DPSolution:
    """Solve via the backend named by the solver-spec option.

    This is what the registry's ``dp`` entry calls: ``dp(backend=vector)``
    and ``dp(backend=scalar)`` force an engine, the default ``auto``
    resolves per instance (see :func:`resolve_backend`).
    """
    resolved = resolve_backend(
        backend, k=mset.num_types, states=estimated_states(mset)
    )
    if resolved == "vector":
        return solve_dp_vector(mset, max_states=max_states)
    return _solve_with_core_cls(_DPCore, mset, max_states)


def core_cls_for(backend: str, *, k: int = 0, states: int = 0):
    """The core class a resolved backend uses (table construction hook)."""
    if resolve_backend(backend, k=k, states=states) == "vector":
        return _VectorCore
    return _DPCore
