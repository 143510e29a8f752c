"""The deterministic fault injector and its site-side entry point.

Mirrors :mod:`repro.tracing.core`: a module-global plain-int activation
counter makes the injection-off path a single global load, and a
:mod:`contextvars` slot carries the per-trial injector across the call
chain. Sites call :func:`fault_point` unconditionally, exactly like
they call :func:`repro.tracing.core.span`.

Every injection decision is a pure function of
``(seed, trial_key, site, operation, visit_index, rule_index)`` hashed
through BLAKE2b — never the builtin ``hash`` (randomized per process)
and never a live RNG — so a given ``(plan, seed)`` schedules the same
faults for the same trial no matter which worker runs it, how many
workers there are, or what ran before it in the same process.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar, Token
from dataclasses import dataclass
from hashlib import blake2b

from .errors import InjectedIOError, InjectedTimeout
from .plan import FaultPlan

__all__ = [
    "InjectionRecord",
    "FaultAction",
    "FaultInjector",
    "fault_point",
    "injection_active",
    "current_injector",
    "apply_torn_write",
]


@dataclass(frozen=True)
class InjectionRecord:
    """One fired injection — plain picklable fields only, like spans."""

    site: str
    operation: str
    kind: str
    visit: int

    def to_json(self) -> dict:
        return {
            "site": self.site,
            "operation": self.operation,
            "kind": self.kind,
            "visit": self.visit,
        }


@dataclass(frozen=True)
class FaultAction:
    """A cooperative fault the *site* must apply (returned, not raised).

    ``fraction`` is a deterministic value in ``[0.25, 0.75)`` used by
    torn writes to pick the truncation point.
    """

    kind: str
    fraction: float


def _hash01(*parts: object) -> float:
    """Map a decision key to a float in ``[0, 1)``, process-independent."""
    key = "\x1f".join(str(part) for part in parts).encode("utf-8")
    digest = blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


# -- the active injector ----------------------------------------------------

#: how many injectors are currently activated, process-wide; the
#: injection-off fast path reads this plain int, nothing else.
_ACTIVE_INJECTORS = 0
_ACTIVE_LOCK = threading.Lock()

_CURRENT_INJECTOR: ContextVar["FaultInjector | None"] = ContextVar(
    "repro_fault_injector", default=None
)


class FaultInjector:
    """Applies one plan to one trial; records everything it fires.

    Used as a context manager around a trial, exactly like ``Tracer``.
    ``trial_key`` is the trial's stable identity (the same
    ``plan/format/input`` string the tracer uses as a trace id), which
    is what detaches the fault schedule from worker scheduling.
    """

    def __init__(self, plan: FaultPlan, seed: int, trial_key: str) -> None:
        self.plan = plan
        self.seed = seed
        self.trial_key = trial_key
        self.records: list[InjectionRecord] = []
        self._visits: dict[tuple[str, str], int] = {}
        self._fired: dict[int, int] = {}
        self._token: Token["FaultInjector | None"] | None = None

    # -- decision -------------------------------------------------------

    def visit(
        self,
        site: str,
        operation: str,
        cooperative: tuple[str, ...],
    ) -> FaultAction | None:
        """One boundary call reached ``site``; decide whether it faults."""
        visit_key = (site, operation)
        index = self._visits.get(visit_key, 0)
        self._visits[visit_key] = index + 1
        for rule_index, rule in enumerate(self.plan.rules):
            if not rule.matches(site, operation):
                continue
            raising = rule.kind in ("timeout", "io_error")
            if not raising and rule.kind not in cooperative:
                # the site cannot apply this cooperative kind; skipping
                # consumes no randomness, so other draws are unaffected
                continue
            fired = self._fired.get(rule_index, 0)
            if rule.max_per_trial and fired >= rule.max_per_trial:
                continue
            draw = _hash01(
                self.seed, self.trial_key, site, operation, index, rule_index
            )
            if draw >= rule.rate:
                continue
            self._fired[rule_index] = fired + 1
            self.records.append(
                InjectionRecord(site, operation, rule.kind, index)
            )
            aux = _hash01(
                "aux",
                self.seed,
                self.trial_key,
                site,
                operation,
                index,
                rule_index,
            )
            if rule.kind == "timeout":
                raise InjectedTimeout(site, operation, jitter=aux)
            if rule.kind == "io_error":
                raise InjectedIOError(site, operation, jitter=aux)
            # cooperative: hand the action back to the site
            return FaultAction(rule.kind, 0.25 + 0.5 * aux)
        return None

    # -- activation -----------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        global _ACTIVE_INJECTORS
        self._token = _CURRENT_INJECTOR.set(self)
        with _ACTIVE_LOCK:
            _ACTIVE_INJECTORS += 1
        return self

    def __exit__(self, *exc_info: object) -> bool:
        global _ACTIVE_INJECTORS
        with _ACTIVE_LOCK:
            _ACTIVE_INJECTORS -= 1
        if self._token is not None:
            _CURRENT_INJECTOR.reset(self._token)
            self._token = None
        return False


# -- module-level site API --------------------------------------------------


def fault_point(
    site: str,
    operation: str = "",
    cooperative: tuple[str, ...] = (),
) -> FaultAction | None:
    """Declare an injectable boundary call; sites call this inline.

    Raises an injected transient fault, returns a cooperative
    :class:`FaultAction` the site must apply, or returns ``None`` (the
    overwhelmingly common case, costing one global int check when no
    injector is active).
    """
    if not _ACTIVE_INJECTORS:
        return None
    injector = _CURRENT_INJECTOR.get()
    if injector is None:
        return None
    return injector.visit(site, operation, cooperative)


def injection_active() -> bool:
    """Whether *this context* has a live injector with at least one rule.

    Engines consult this to bypass their plan caches: prepared-plan
    reuse would skip prepare-time fault points on cache hits, making
    the schedule depend on cache history (which varies with worker
    count). Bypassed statements still go through prepare and execute,
    the same path as on a cache miss; only reuse is skipped.
    """
    if not _ACTIVE_INJECTORS:
        return False
    injector = _CURRENT_INJECTOR.get()
    return injector is not None and not injector.plan.empty


def current_injector() -> "FaultInjector | None":
    return _CURRENT_INJECTOR.get() if _ACTIVE_INJECTORS else None


def apply_torn_write(blob: bytes, action: FaultAction) -> bytes:
    """Truncate ``blob`` at the action's deterministic tear point."""
    if not blob:
        return blob
    return blob[: int(len(blob) * action.fraction)]
