"""Deterministic, seed-driven fault injection at cross-system seams.

The paper's CSI failures live at boundaries; PR 3 made every boundary
call a span, and this package makes the same sites injectable. A
:class:`FaultPlan` (picklable, rate-based rules over the traced
``boundary``/``operation`` vocabulary) plus an integer seed fully
determines which boundary calls fault in which trials — the schedule is
a pure hash, so it reproduces across runs and ``--jobs`` worker counts,
which is what lets CI gate on the robustness classifications.
"""

from .core import (
    FaultAction,
    FaultInjector,
    InjectionRecord,
    apply_torn_write,
    current_injector,
    fault_point,
    injection_active,
)
from .errors import (
    BoundaryError,
    BoundaryTimeout,
    BoundaryUnavailable,
    FaultError,
    InjectedFault,
    InjectedIOError,
    InjectedTimeout,
    TransientFault,
)
from .plan import (
    BUILTIN_PLANS,
    EMPTY_PLAN,
    FAULT_KINDS,
    KNOWN_SITES,
    FaultPlan,
    FaultRule,
    FaultSite,
    PlanError,
    load_plan,
)

__all__ = [
    "FaultAction",
    "FaultInjector",
    "InjectionRecord",
    "apply_torn_write",
    "current_injector",
    "fault_point",
    "injection_active",
    "BoundaryError",
    "BoundaryTimeout",
    "BoundaryUnavailable",
    "FaultError",
    "InjectedFault",
    "InjectedIOError",
    "InjectedTimeout",
    "TransientFault",
    "BUILTIN_PLANS",
    "EMPTY_PLAN",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "FaultSite",
    "KNOWN_SITES",
    "PlanError",
    "load_plan",
]
