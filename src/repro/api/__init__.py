"""repro.api — the unified planning façade.

This package is the single public surface for planning multicasts.  All
solvers — the paper's greedy family, the related-work baselines, the
Section 4 dynamic program and the exact branch-and-bound oracle — register
in one capability-aware catalogue and are resolved from one spec string,
so no consumer ever special-cases a solver name again.

Quickstart
----------
>>> from repro import MulticastSet
>>> from repro.api import Planner
>>> mset = MulticastSet.from_overheads(
...     source=(2, 3),
...     destinations=[(1, 1), (1, 1), (1, 1), (2, 3)],
...     latency=1,
... )
>>> planner = Planner()
>>> planner.plan(mset, solver="dp").value
8.0
>>> batch = planner.plan_batch(
...     [mset, mset], jobs=2
... )
>>> batch.values()
(8.0, 8.0)
"""

from __future__ import annotations

from repro.api.planner import (
    CacheInfo,
    CacheKey,
    CacheTier,
    Planner,
    instance_fingerprint,
    plan,
    plan_batch,
)
from repro.api.multigroup import (
    DEFAULT_STRATEGY,
    MultiGroupPlanner,
    MultiGroupResult,
    available_multi_group_solvers,
    plan_groups,
)
from repro.api.request import BatchResult, PlanRequest, PlanResult
from repro.api.tables import OptimalTableCache
from repro.core.contention import MultiGroupInstance, MultiGroupSchedule
from repro.core.canonical import CanonicalForm, canonical_key, canonicalize
from repro.api.solvers import (
    SolverCapabilities,
    SolverEntry,
    SolverOutput,
    available_bounds,
    available_solvers,
    bound_values,
    capable_solvers,
    get_solver,
    parse_spec,
    register_bound,
    register_solver,
    resolve,
    solver_items,
    unregister_solver,
)

__all__ = [
    # engine
    "Planner",
    "CacheInfo",
    "CacheTier",
    "CacheKey",
    "OptimalTableCache",
    "plan",
    "plan_batch",
    "instance_fingerprint",
    # canonicalization (see repro.core.canonical)
    "CanonicalForm",
    "canonicalize",
    "canonical_key",
    # request/response
    "PlanRequest",
    "PlanResult",
    "BatchResult",
    # registry
    "SolverCapabilities",
    "SolverEntry",
    "SolverOutput",
    "register_solver",
    "unregister_solver",
    "register_bound",
    "get_solver",
    "resolve",
    "parse_spec",
    "available_solvers",
    "solver_items",
    "capable_solvers",
    "available_bounds",
    "bound_values",
    # multi-group planning under shared-sender contention (DESIGN.md §8)
    "MultiGroupInstance",
    "MultiGroupSchedule",
    "MultiGroupPlanner",
    "MultiGroupResult",
    "DEFAULT_STRATEGY",
    "available_multi_group_solvers",
    "plan_groups",
    # conformance (lazy: repro.conformance consumes this package)
    "ConformanceRunner",
    "InvariantReport",
    # perf (lazy: repro.perf kernels plan through this facade)
    "PerfRunner",
    "BenchmarkRecord",
    "ComparisonReport",
    "compare_records",
    "load_baseline",
    "load_baselines",
    "write_baseline",
    "environment_fingerprint",
]

# conformance + perf entry points, re-exported lazily because both
# packages consume this facade (their kernels plan through Planner)
_LAZY_EXPORTS = {
    "ConformanceRunner": ("repro.conformance.runner", "ConformanceRunner"),
    "InvariantReport": ("repro.conformance.runner", "InvariantReport"),
    "PerfRunner": ("repro.perf.runner", "PerfRunner"),
    "BenchmarkRecord": ("repro.perf.baseline", "BenchmarkRecord"),
    "ComparisonReport": ("repro.perf.compare", "ComparisonReport"),
    "compare_records": ("repro.perf.compare", "compare_records"),
    "load_baseline": ("repro.perf.baseline", "load_baseline"),
    "load_baselines": ("repro.perf.baseline", "load_baselines"),
    "write_baseline": ("repro.perf.baseline", "write_baseline"),
    "environment_fingerprint": ("repro.perf.environment", "environment_fingerprint"),
}


def __getattr__(name: str):
    """Resolve the lazy conformance/perf exports."""
    if name in _LAZY_EXPORTS:
        import importlib

        module_name, attr = _LAZY_EXPORTS[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
