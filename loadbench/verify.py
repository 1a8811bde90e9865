"""Reference answers, set-up state and the correctness gate.

Every request of a stream is answered once by a direct, uncached
:class:`~repro.api.Planner` before the server starts.  The same answers
seed the plan store, and their masked payload digests are what each
served response must equal byte for byte -- ``elapsed_s``, ``cache_hit``
and ``tag`` neutralized exactly as the ``service-parity`` invariant
(:func:`repro.conformance.invariants.canonical_result_payload`) does.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.api import Planner
from repro.api.tables import OptimalTableCache
from repro.conformance.invariants import canonical_result_payload
from repro.core.bounds import certified_lower_bound
from repro.service import protocol
from repro.service.store import PlanStore

from workloads import Stream


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def masked_digest(result_payload: Dict[str, Any]) -> str:
    """Digest of a wire ``repro/plan-result-v1`` payload, volatile fields masked."""
    payload = dict(result_payload)
    payload["elapsed_s"] = 0.0
    payload["cache_hit"] = False
    payload["tag"] = None
    return _digest(json.dumps(payload, sort_keys=True))


@dataclass
class References:
    """Expected answer digest and certified lower bound per stream ref."""

    digests: Dict[str, str] = field(default_factory=dict)
    lower_bounds: Dict[str, float] = field(default_factory=dict)


def compute_references(
    stream: Stream, store_dir: Optional[Path], snapshot_dir: Optional[Path]
) -> References:
    """Answer every ref directly; write the store and table snapshots."""
    planner = Planner(cache_size=0)
    refs = References()
    plan_refs = set(stream.plan_refs)
    store_refs = set(stream.store_refs)
    store = PlanStore(store_dir) if store_dir is not None else None
    for ref, request in stream.references.items():
        result = planner.plan(request)
        refs.digests[ref] = _digest(canonical_result_payload(result))
        if ref in plan_refs:
            refs.lower_bounds[ref] = certified_lower_bound(request.instance)
        if store is not None and ref in store_refs:
            store.put(planner.request_key(request), result)
    if snapshot_dir is not None:
        tables = OptimalTableCache(snapshot_dir=snapshot_dir)
        for mset, counts in stream.snapshot_networks:
            canon = mset.canonical_form().mset
            tables.acquire_box(canon.type_keys(), canon.latency, counts)
    return refs


#: Fields of an answer line that may differ between two correct answers
#: to the same request: the envelope's id, tier, session and repaired
#: flag, and the result fields service-parity masks.
_VOLATILE = re.compile(
    rb'"(id|tier|session|repaired|elapsed_s|cache_hit|tag)": ("[^"]*"|[^,}]+)'
)


@dataclass
class Verdict:
    """Outcome of checking every response of a run.

    ``passed`` maps a ref to the digest of an answer line that passed the
    full check with its volatile fields blanked; a later line for the same
    ref with the same digest is the same bytes, so it passes without
    being decoded again.
    """

    checked: int = 0
    mismatches: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    ratios: List[float] = field(default_factory=list)
    passed: Dict[str, bytes] = field(default_factory=dict)


_EXPECTED_TYPE = {"plan": "result", "open": "session-result", "delta": "session-result"}


def check_responses(
    answers: Dict[int, bytes], ops, refs: References, verdict: Verdict, *, makespan: bool
) -> None:
    """Decode each answered op's line and compare it with its reference.

    Ops without an answer are counted as errors (timeouts).  With
    ``makespan`` the served value over the certified lower bound of each
    plan answer is collected for ``makespan_over_lb``.
    """
    for op in ops:
        line = answers.get(op.id)
        if line is None:
            verdict.errors.append(f"op {op.id} ({op.kind} {op.ref}): no answer")
            continue
        blanked = hashlib.sha256(_VOLATILE.sub(rb'"\1": _', line)).digest()
        if not makespan and verdict.passed.get(op.ref) == blanked:
            verdict.checked += 1
            continue
        message = protocol.decode(line)
        if message.get("type") != _EXPECTED_TYPE[op.kind]:
            verdict.errors.append(
                f"op {op.id} ({op.kind} {op.ref}): {message.get('type')}: "
                f"{message.get('error', '')}"
            )
            continue
        verdict.checked += 1
        payload = message["result"]
        if masked_digest(payload) != refs.digests[op.ref]:
            verdict.mismatches.append(f"op {op.id} ({op.kind} {op.ref})")
        else:
            verdict.passed[op.ref] = blanked
        if makespan and op.kind == "plan":
            verdict.ratios.append(payload["value"] / refs.lower_bounds[op.ref])
