"""The pluggable invariant catalogue.

An *invariant* is a named check over a :class:`ScenarioOutcome` — one
scenario's instance plus every capable solver's :class:`PlanResult`, the
exact-oracle value when one applies, and the certified lower bounds.  It
returns a list of :class:`Violation` (empty means the invariant holds), so
the runner can keep sweeping and report everything at once.

Built-in catalogue
------------------
``value-consistency``     result fields agree with the schedule's recurrences
``replay-agreement``      the discrete-event simulator replays every schedule
                          to the analytic times
``oracle-optimality``     no solver beats the exact oracle; exact solvers
                          (dp, branch-and-bound) agree with it bit-for-bit
``bounds-sandwich``       every certified lower bound <= OPT <= every solver
``theorem1-guarantee``    greedy respects ``C * OPT + beta`` (exact opt only)
``leaf-reversal``         reversing leaves never increases ``R_T`` and is
                          idempotent in value
``scaling``               scaling all overheads and the latency by ``c``
                          scales every solver's value by exactly ``c``
``permutation``           destination input order never changes any value
``serialization``         instances, schedules and results round-trip
                          bit-identically through :mod:`repro.io`
``repair-identity``       session repair under a membership-delta chain is
                          byte-equal to cold re-planning each post-delta
                          membership
``contention-work-conservation``
                          no shared sender is busy for two groups in
                          overlapping intervals on a derived contended
                          multi-group instance
``contention-isolated-floor``
                          a group planned under contention never beats its
                          isolated single-group optimum
``contention-replay``     the merged multi-group discrete-event replay
                          agrees with the analytic offsets and makespan
``contention-dominance``  naive sequential is never better than the best
                          interleaved multi-group strategy

Custom invariants register with :func:`register_invariant` and are picked
up by every :class:`~repro.conformance.runner.ConformanceRunner` built
afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.api.planner import Planner, instance_fingerprint
from repro.api.request import PlanRequest, PlanResult
from repro.conformance.corpus import ScenarioSpec
from repro.core.bounds import theorem1_factor
from repro.core.leaf_reversal import reverse_leaves
from repro.core.multicast import MulticastSet
from repro.core.node import Node
from repro.exceptions import ConformanceError, ReproError
from repro.io.serialization import (
    multicast_from_dict,
    multicast_to_dict,
    plan_result_from_dict,
    plan_result_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.simulation.executor import simulate_schedule

__all__ = [
    "TOLERANCE",
    "Violation",
    "ScenarioOutcome",
    "InvariantEntry",
    "register_invariant",
    "get_invariant",
    "available_invariants",
    "invariant_items",
]

#: Absolute tolerance for float comparisons.  All model arithmetic is
#: sums/maxima of integer inputs, so disagreements beyond this are real.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant breach: the offending solver (if any) and what broke.

    Messages are deterministic functions of the scenario spec so failure
    digests replay bit-identically.
    """

    message: str
    solver: Optional[str] = None


@dataclass
class ScenarioOutcome:
    """Everything the runner computed for one scenario.

    Attributes
    ----------
    spec / mset:
        The scenario recipe and the instance it built.
    results:
        Canonical solver name -> :class:`PlanResult`, for every registered
        solver whose capabilities declare the instance practical.
    oracle_value:
        The exact optimum when an exact solver was capable, else ``None``.
    oracle_solver:
        Which solver certified ``oracle_value``.
    bounds:
        Certified lower bounds from the :mod:`repro.api` bound registry.
    planner:
        The planner metamorphic invariants re-solve through.
    solver_errors:
        Solvers that raised instead of returning a schedule, mapped to a
        deterministic ``"ExceptionType: message"`` description; consumed
        by the ``no-crash`` invariant.
    """

    spec: ScenarioSpec
    mset: MulticastSet
    results: Dict[str, PlanResult]
    oracle_value: Optional[float] = None
    oracle_solver: Optional[str] = None
    bounds: Dict[str, float] = field(default_factory=dict)
    planner: Planner = field(default_factory=lambda: Planner(cache_size=0))
    solver_errors: Dict[str, str] = field(default_factory=dict)

    def solve(self, mset: MulticastSet, solver: str) -> PlanResult:
        """Re-solve a (possibly transformed) instance with one solver."""
        return self.planner.plan(PlanRequest(instance=mset, solver=solver))


#: (outcome) -> violations
InvariantFn = Callable[[ScenarioOutcome], List[Violation]]


@dataclass(frozen=True)
class InvariantEntry:
    """One registered invariant: name, callable, description."""

    name: str
    fn: InvariantFn
    description: str

    def __call__(self, outcome: ScenarioOutcome) -> List[Violation]:
        return self.fn(outcome)


_INVARIANTS: Dict[str, InvariantEntry] = {}


def register_invariant(name: str, description: str) -> Callable[[InvariantFn], InvariantFn]:
    """Decorator: add an invariant to the catalogue under ``name``."""

    def deco(fn: InvariantFn) -> InvariantFn:
        if name in _INVARIANTS:
            raise ConformanceError(f"invariant {name!r} registered twice")
        _INVARIANTS[name] = InvariantEntry(name=name, fn=fn, description=description)
        return fn

    return deco


def get_invariant(name: str) -> InvariantEntry:
    """The registered invariant, or :class:`ConformanceError`."""
    try:
        return _INVARIANTS[name]
    except KeyError:
        raise ConformanceError(
            f"unknown invariant {name!r}; available: {available_invariants()}"
        ) from None


def available_invariants() -> List[str]:
    """Sorted names of every registered invariant."""
    return sorted(_INVARIANTS)


def invariant_items() -> Iterator[InvariantEntry]:
    """Iterate entries in sorted name order."""
    for name in sorted(_INVARIANTS):
        yield _INVARIANTS[name]


# ----------------------------------------------------------------------
# built-in catalogue
# ----------------------------------------------------------------------
@register_invariant(
    "no-crash",
    "every capable solver returns a schedule instead of raising",
)
def _no_crash(outcome: ScenarioOutcome) -> List[Violation]:
    return [
        Violation(f"solver raised {description}", name)
        for name, description in sorted(outcome.solver_errors.items())
    ]


@register_invariant(
    "value-consistency",
    "PlanResult fields agree with the schedule's analytic recurrences",
)
def _value_consistency(outcome: ScenarioOutcome) -> List[Violation]:
    out: List[Violation] = []
    for name, result in sorted(outcome.results.items()):
        schedule = result.schedule
        if schedule.multicast != outcome.mset:
            out.append(Violation("schedule built for a different instance", name))
            continue
        if abs(result.value - schedule.reception_completion) > TOLERANCE:
            out.append(
                Violation(
                    f"value {result.value:g} != schedule R_T "
                    f"{schedule.reception_completion:g}",
                    name,
                )
            )
        if abs(result.delivery_completion - schedule.delivery_completion) > TOLERANCE:
            out.append(
                Violation(
                    f"delivery_completion {result.delivery_completion:g} != "
                    f"schedule D_T {schedule.delivery_completion:g}",
                    name,
                )
            )
        reached = set()
        for _parent, child, _slot in schedule.edges():
            reached.add(child)
        expected = set(range(1, outcome.mset.n + 1))
        if reached != expected:
            out.append(
                Violation(
                    f"tree reaches {sorted(reached)} instead of all "
                    f"{outcome.mset.n} destinations",
                    name,
                )
            )
    return out


@register_invariant(
    "replay-agreement",
    "the discrete-event simulator replays each schedule to the analytic times",
)
def _replay_agreement(outcome: ScenarioOutcome) -> List[Violation]:
    out: List[Violation] = []
    for name, result in sorted(outcome.results.items()):
        try:
            sim = simulate_schedule(result.schedule, verify=True)
        except ReproError as exc:
            out.append(Violation(f"simulated replay failed: {exc}", name))
            continue
        if abs(sim.reception_completion - result.value) > TOLERANCE:
            out.append(
                Violation(
                    f"simulated R_T {sim.reception_completion:g} != planned "
                    f"{result.value:g}",
                    name,
                )
            )
    return out


@register_invariant(
    "oracle-optimality",
    "no solver beats the exact oracle and exact solvers agree with it",
)
def _oracle_optimality(outcome: ScenarioOutcome) -> List[Violation]:
    if outcome.oracle_value is None:
        return []
    opt = outcome.oracle_value
    out: List[Violation] = []
    for name, result in sorted(outcome.results.items()):
        if result.value < opt - TOLERANCE:
            out.append(
                Violation(
                    f"value {result.value:g} beats the {outcome.oracle_solver} "
                    f"oracle optimum {opt:g} — one of them is wrong",
                    name,
                )
            )
        if result.exact and abs(result.value - opt) > TOLERANCE:
            out.append(
                Violation(
                    f"exact solver disagrees with the {outcome.oracle_solver} "
                    f"oracle: {result.value:g} != {opt:g}",
                    name,
                )
            )
    return out


@register_invariant(
    "bounds-sandwich",
    "every certified lower bound <= OPT <= every solver's value",
)
def _bounds_sandwich(outcome: ScenarioOutcome) -> List[Violation]:
    out: List[Violation] = []
    for bound_name, bound in sorted(outcome.bounds.items()):
        if outcome.oracle_value is not None and bound > outcome.oracle_value + TOLERANCE:
            out.append(
                Violation(
                    f"lower bound {bound_name}={bound:g} exceeds the exact "
                    f"optimum {outcome.oracle_value:g}",
                )
            )
        for solver, result in sorted(outcome.results.items()):
            if bound > result.value + TOLERANCE:
                out.append(
                    Violation(
                        f"lower bound {bound_name}={bound:g} exceeds the "
                        f"feasible value {result.value:g}",
                        solver,
                    )
                )
    return out


@register_invariant(
    "theorem1-guarantee",
    "greedy respects Theorem 1's C * OPT + beta against an exact optimum",
)
def _theorem1_guarantee(outcome: ScenarioOutcome) -> List[Violation]:
    if outcome.oracle_value is None or not outcome.mset.correlated:
        return []
    out: List[Violation] = []
    factor = theorem1_factor(outcome.mset)
    guarantee = factor * outcome.oracle_value + outcome.mset.beta
    for name in ("greedy", "greedy+reversal"):
        result = outcome.results.get(name)
        if result is None:
            continue
        if result.value >= guarantee + TOLERANCE:
            out.append(
                Violation(
                    f"value {result.value:g} breaks Theorem 1's guarantee "
                    f"{factor:g} * {outcome.oracle_value:g} + "
                    f"{outcome.mset.beta:g} = {guarantee:g}",
                    name,
                )
            )
    return out


@register_invariant(
    "leaf-reversal",
    "reversing leaf order never increases R_T and is idempotent in value",
)
def _leaf_reversal(outcome: ScenarioOutcome) -> List[Violation]:
    out: List[Violation] = []
    for name, result in sorted(outcome.results.items()):
        reversed_once = reverse_leaves(result.schedule)
        if reversed_once.reception_completion > result.value + TOLERANCE:
            out.append(
                Violation(
                    f"leaf reversal increased R_T: {result.value:g} -> "
                    f"{reversed_once.reception_completion:g}",
                    name,
                )
            )
        reversed_twice = reverse_leaves(reversed_once)
        if (
            abs(
                reversed_twice.reception_completion
                - reversed_once.reception_completion
            )
            > TOLERANCE
        ):
            out.append(
                Violation(
                    f"leaf reversal is not value-idempotent: "
                    f"{reversed_once.reception_completion:g} -> "
                    f"{reversed_twice.reception_completion:g}",
                    name,
                )
            )
    gr, grr = outcome.results.get("greedy"), outcome.results.get("greedy+reversal")
    if gr is not None and grr is not None and grr.value > gr.value + TOLERANCE:
        out.append(
            Violation(
                f"greedy+reversal ({grr.value:g}) worse than greedy "
                f"({gr.value:g})",
                "greedy+reversal",
            )
        )
    return out


_SCALING_FACTOR = 3


def _scaled_instance(mset: MulticastSet, factor: int) -> MulticastSet:
    scaled = [
        Node(nd.name, nd.send_overhead * factor, nd.receive_overhead * factor)
        for nd in mset.nodes
    ]
    return MulticastSet(
        scaled[0],
        scaled[1:],
        mset.latency * factor,
        validate_correlation=mset.correlated,
    )


@register_invariant(
    "scaling",
    "scaling all overheads and the latency by c scales every value by c",
)
def _scaling(outcome: ScenarioOutcome) -> List[Violation]:
    scaled = _scaled_instance(outcome.mset, _SCALING_FACTOR)
    out: List[Violation] = []
    for name, result in sorted(outcome.results.items()):
        rescaled = outcome.solve(scaled, name)
        expected = result.value * _SCALING_FACTOR
        if abs(rescaled.value - expected) > TOLERANCE:
            out.append(
                Violation(
                    f"x{_SCALING_FACTOR} instance solved to {rescaled.value:g}, "
                    f"expected {expected:g}",
                    name,
                )
            )
    return out


@register_invariant(
    "permutation",
    "the input order of destinations never changes any solver's value",
)
def _permutation(outcome: ScenarioOutcome) -> List[Violation]:
    mset = outcome.mset
    permuted = MulticastSet(
        mset.source,
        tuple(reversed(mset.destinations)),
        mset.latency,
        validate_correlation=mset.correlated,
    )
    out: List[Violation] = []
    for name, result in sorted(outcome.results.items()):
        reordered = outcome.solve(permuted, name)
        if abs(reordered.value - result.value) > TOLERANCE:
            out.append(
                Violation(
                    f"destination permutation changed the value: "
                    f"{result.value:g} -> {reordered.value:g}",
                    name,
                )
            )
    return out


@register_invariant(
    "serialization",
    "instances, schedules and plan results round-trip through repro.io",
)
def _serialization(outcome: ScenarioOutcome) -> List[Violation]:
    out: List[Violation] = []
    rebuilt = multicast_from_dict(multicast_to_dict(outcome.mset))
    if instance_fingerprint(rebuilt) != instance_fingerprint(outcome.mset):
        out.append(Violation("instance fingerprint changed across a JSON round-trip"))
    for name, result in sorted(outcome.results.items()):
        schedule_again = schedule_from_dict(schedule_to_dict(result.schedule))
        if schedule_again != result.schedule:
            out.append(Violation("schedule changed across a JSON round-trip", name))
        elif (
            abs(schedule_again.reception_completion - result.value) > TOLERANCE
        ):  # pragma: no cover - implied by equality above
            out.append(Violation("round-tripped schedule re-times differently", name))
        first = plan_result_to_dict(result)
        second = plan_result_to_dict(plan_result_from_dict(first))
        if json.dumps(first, sort_keys=True) != json.dumps(second, sort_keys=True):
            out.append(
                Violation("plan result is not bit-stable across a JSON round-trip", name)
            )
    return out


@register_invariant(
    "repair-identity",
    "session-repaired plans under membership churn are byte-equal to cold re-plans",
)
def _repair_identity(outcome: ScenarioOutcome) -> List[Violation]:
    """Drive the production session engine over a deterministic churn chain.

    For every table-reusable solver: open a session on the scenario's
    instance, stream the :func:`repro.core.repair.churn_chain` derived
    from the scenario seed, and demand each repaired plan byte-equal a
    cold re-plan (fresh planner, no table reuse) of the same post-delta
    membership — values, schedules, bounds and provenance alike.
    """
    # local imports: conformance must stay importable without the service
    # package loaded, and repro.service.sessions imports nothing back
    from repro.api.solvers import resolve
    from repro.api.tables import TableCacheConfig
    from repro.core.repair import apply_delta, churn_chain
    from repro.service.sessions import SessionManager

    out: List[Violation] = []
    for name in sorted(outcome.results):
        entry, _ = resolve(name)
        if not entry.capabilities.reusable_table:
            continue
        chain = churn_chain(outcome.mset, seed=outcome.spec.seed, length=3)
        manager = SessionManager(Planner(cache_size=0))
        cold = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False))
        opened = manager.open(PlanRequest(instance=outcome.mset, solver=name))
        try:
            mset = outcome.mset
            for delta in chain:
                mset = apply_delta(mset, delta)
                if not entry.capabilities.supports(mset):
                    break  # churn pushed past the solver's practical range
                update = manager.apply(opened.session_id, delta)
                repaired = canonical_result_payload(update.result)
                replanned = canonical_result_payload(
                    cold.plan(PlanRequest(instance=mset, solver=name))
                )
                if repaired != replanned:
                    out.append(
                        Violation(
                            f"repaired plan diverged from cold re-plan at "
                            f"delta seq {delta.seq}",
                            name,
                        )
                    )
        finally:
            manager.close(opened.session_id)
    return out


def _contention_outcome(outcome: ScenarioOutcome):
    """Evaluate the scenario's derived contended instance once, cached.

    Four ``contention-*`` invariants consume the same evaluation; the
    derivation and every strategy solve are deterministic functions of
    the scenario instance, so computing them once per outcome is safe.
    """
    # local import: repro.conformance.contention consumes this module
    from repro.conformance.contention import (
        derive_contention_instance,
        evaluate_multi_group,
    )

    cached = getattr(outcome, "_contention", None)
    if cached is None:
        instance = derive_contention_instance(outcome.mset)
        cached = evaluate_multi_group(instance, outcome.planner)
        outcome._contention = cached  # type: ignore[attr-defined]
    return cached


@register_invariant(
    "contention-work-conservation",
    "no shared sender serves two multicast groups in overlapping intervals",
)
def _contention_work_conservation(outcome: ScenarioOutcome) -> List[Violation]:
    from repro.conformance.contention import check_work_conservation

    return check_work_conservation(_contention_outcome(outcome))


@register_invariant(
    "contention-isolated-floor",
    "a group planned under contention never beats its isolated optimum",
)
def _contention_isolated_floor(outcome: ScenarioOutcome) -> List[Violation]:
    from repro.conformance.contention import check_isolated_floor

    return check_isolated_floor(_contention_outcome(outcome))


@register_invariant(
    "contention-replay",
    "the merged multi-group replay agrees with the analytic schedule",
)
def _contention_replay(outcome: ScenarioOutcome) -> List[Violation]:
    from repro.conformance.contention import check_replay_agreement

    return check_replay_agreement(_contention_outcome(outcome))


@register_invariant(
    "contention-dominance",
    "naive sequential never beats the best interleaved multi-group strategy",
)
def _contention_dominance(outcome: ScenarioOutcome) -> List[Violation]:
    from repro.conformance.contention import check_strategy_dominance

    return check_strategy_dominance(_contention_outcome(outcome))


def canonical_result_payload(result: PlanResult) -> str:
    """Bit-comparable form of a result: volatile fields neutralized.

    ``elapsed_s`` is wall-clock and ``cache_hit``/``tag`` depend on which
    path served the result, not on what was computed; everything else —
    schedule, values, exactness, bounds, provenance — must match exactly
    between the direct planner and the service.  Used by the runner's
    service-parity check.
    """
    payload = plan_result_to_dict(result)
    payload["elapsed_s"] = 0.0
    payload["cache_hit"] = False
    payload["tag"] = None
    return json.dumps(payload, sort_keys=True)
