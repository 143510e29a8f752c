"""Canonical discrepancy fingerprints shared by classification and fuzzing.

A *fingerprint* names the mechanism of a discrepancy, not the input that
happened to trigger it: ``(oracle, plan pair, format, canonical type
shape, normalized evidence, conf)``. Two inputs that trip the same
mechanism — a curated ``decimal(5,2)`` overflow and a fuzz-generated
``decimal(7,3)`` overflow — produce the *same* fingerprint, which is
what lets ``repro fuzz`` dedup its findings against the committed
baseline of known discrepancies instead of re-reporting the paper's 15
on every run.

The module also hosts the trial-shape helpers the classifier's
behavioural signatures are written in (``canonical_input``,
``sql_rejected``, ``df_nulled``, ``df_mangled``, ...); they were
previously private to :mod:`repro.crosstest.classify` and are shared
here so the fuzzer's dedup logic and the classifier read trials through
one vocabulary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.common.row import values_equal
from repro.common.types import (
    ByteType,
    IntegerType,
    LongType,
    MapType,
    ShortType,
    StringType,
)
from repro.crosstest.harness import NO_ROWS, Outcome, Trial
from repro.crosstest.oracles import OracleFailure, all_failures, canonical
from repro.crosstest.values import TestInput

__all__ = [
    "Fingerprint",
    "FingerprintHit",
    "type_shape",
    "outcome_shape",
    "failure_fingerprint",
    "run_fingerprints",
    "conf_label",
    "canonical_input",
    "is_narrow_int",
    "is_wide_int",
    "has_non_string_map_key",
    "sql_rejected",
    "df_nulled",
    "df_mangled",
]

#: numeric parameters inside a type text — ``decimal(10,2)``,
#: ``char(5)`` — are input detail, not mechanism, and are stripped from
#: the shape.
_TYPE_PARAMS = re.compile(r"\(\s*\d+\s*(?:,\s*\d+\s*)?\)")


@dataclass(frozen=True)
class Fingerprint:
    """The identity of one discrepancy mechanism.

    ``plans`` keeps the failure's plan tuple (one plan for WR/EH, the
    differing pair for Diff); ``fmt`` is the storage format, or
    ``"a<>b"`` for a format-axis differential; ``conf`` is the
    deployment-conf label the trial ran under (``""`` for defaults).
    """

    oracle: str
    group: str
    fmt: str
    plans: tuple[str, ...]
    type_shape: str
    evidence: str
    conf: str = ""

    @property
    def key(self) -> str:
        """Stable string identity — what baselines and JSONL store."""
        return "|".join(
            (
                self.oracle,
                self.group,
                self.fmt,
                "+".join(self.plans),
                self.type_shape,
                self.evidence,
                self.conf,
            )
        )

    def to_json(self) -> dict:
        return {
            "oracle": self.oracle,
            "group": self.group,
            "fmt": self.fmt,
            "plans": list(self.plans),
            "type": self.type_shape,
            "evidence": self.evidence,
            "conf": self.conf,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Fingerprint":
        return cls(
            oracle=payload["oracle"],
            group=payload["group"],
            fmt=payload["fmt"],
            plans=tuple(payload["plans"]),
            type_shape=payload["type"],
            evidence=payload["evidence"],
            conf=payload.get("conf", ""),
        )


def type_shape(type_text: str) -> str:
    """The canonical shape of a declared type.

    Numeric parameters are stripped (``decimal(10,2)`` → ``decimal``),
    nesting is preserved (``array<decimal(5,0)>`` → ``array<decimal>``),
    and struct field *names* are reduced to a case marker: the names
    themselves are input detail, but whether any of them carries upper
    case is mechanism (#14 only fires on mixed-case fields).
    """
    text = _TYPE_PARAMS.sub("", type_text.replace(" ", ""))
    if not text.startswith("struct<"):
        return text

    def _strip_struct(chunk: str) -> str:
        # replace each "name:" with a case marker, at any nesting depth
        out: list[str] = []
        index = 0
        while index < len(chunk):
            match = re.match(r"([A-Za-z_][A-Za-z0-9_]*):", chunk[index:])
            if match:
                name = match.group(1)
                out.append("F!" if name != name.lower() else "f")
                out.append(":")
                index += match.end()
            else:
                out.append(chunk[index])
                index += 1
        return "".join(out)

    return _strip_struct(text)


def _value_type_shape(outcome: Outcome, test_input: TestInput) -> str:
    """Shape of the *read-back* type, with a lower-casing marker.

    The declared-vs-observed comparison happens on the raw type texts
    first (so ``struct<Aa:int>`` vs ``struct<aa:int>`` is visible), then
    the observed text is normalized like any declared type.
    """
    observed = outcome.value_type
    declared = test_input.type_text.replace(" ", "")
    if not observed:
        return ""
    if observed == declared:
        return type_shape(observed)
    if declared != declared.lower() and observed == declared.lower():
        return f"{type_shape(observed)}#lowercased"
    return type_shape(observed)


def outcome_shape(outcome: Outcome, test_input: TestInput) -> str:
    """Normalized behaviour of one trial outcome, value detail removed.

    Errors keep ``stage`` and ``error_type`` (the mechanism) and drop
    the message (the input). Successful reads are classified by what
    came back relative to what went in: the expected value, the raw
    (invalid) input verbatim, ``NULL``, no rows, or something else.
    """
    if not outcome.ok:
        return f"error:{outcome.stage}:{outcome.error_type}"
    if outcome.value is NO_ROWS:
        return "ok:no_rows"
    vshape = _value_type_shape(outcome, test_input)
    if outcome.value is None:
        return f"ok:null:{vshape}"
    if values_equal(outcome.value, test_input.expected_value):
        return f"ok:expected:{vshape}"
    if values_equal(outcome.value, test_input.py_value):
        return f"ok:input:{vshape}"
    return f"ok:other:{vshape}"


def conf_label(conf_overrides: dict[str, object] | None) -> str:
    """Stable rendering of the deployment conf a trial ran under."""
    if not conf_overrides:
        return ""
    return ";".join(
        f"{key}={value}" for key, value in sorted(conf_overrides.items())
    )


def failure_fingerprint(
    failure: OracleFailure,
    cells: dict[tuple[str, str], Trial],
    conf: str = "",
) -> Fingerprint:
    """Fingerprint one oracle failure given its input's trials.

    ``cells`` maps ``(plan name, fmt)`` to the failure's input's trial
    under that plan and format: every trial of the input, the same
    bucket the classifier matches signatures over.
    """
    if failure.oracle in ("wr", "eh"):
        trial = cells[(failure.plans[0], failure.fmt)]
        test_input = trial.test_input
        fmt = failure.fmt
        evidence = outcome_shape(trial.outcome, test_input)
    else:
        # differential: two trials, identified by the failure's axis
        if failure.axis == "fmt":
            left = cells[(failure.plans[0], failure.labels[0])]
            right = cells[(failure.plans[1], failure.labels[1])]
            fmt = f"{failure.labels[0]}<>{failure.labels[1]}"
        else:
            left = cells[(failure.plans[0], failure.fmt)]
            right = cells[(failure.plans[1], failure.fmt)]
            fmt = failure.fmt
        test_input = left.test_input
        evidence = (
            f"{outcome_shape(left.outcome, test_input)}"
            f"<>{outcome_shape(right.outcome, test_input)}"
        )
    return Fingerprint(
        oracle=failure.oracle,
        group=failure.group,
        fmt=fmt,
        plans=failure.plans,
        type_shape=type_shape(test_input.type_text),
        evidence=evidence,
        conf=conf,
    )


@dataclass
class FingerprintHit:
    """One distinct fingerprint observed in a run, with its witnesses."""

    fingerprint: Fingerprint
    failures: list[OracleFailure] = field(default_factory=list)
    #: input id of the key's first failure. WR/EH failures come in trial
    #: order and a key's are all of one (plan, fmt) cell; Diff failures
    #: come bucket by bucket, each sorted by input id. So in a run whose
    #: input ids rise with input position (a fuzz round's batch), this is
    #: the lowest input id that hit the key.
    witness_input_id: int = -1


def run_fingerprints(
    trials: list[Trial],
    failures: dict[str, list[OracleFailure]] | None = None,
    conf: str = "",
) -> dict[str, FingerprintHit]:
    """Every distinct fingerprint of a run, with its witnessing failures.

    Returns ``{fingerprint key: hit}``; recomputes the oracle failures
    when not handed in. Iteration order is deterministic: the oracles'
    own failure order (see :attr:`FingerprintHit.witness_input_id`).
    """
    if failures is None:
        failures = all_failures(trials)
    cells: dict[int, dict[tuple[str, str], Trial]] = {}
    for trial in trials:
        cells.setdefault(trial.test_input.input_id, {})[
            (trial.plan.name, trial.fmt)
        ] = trial
    out: dict[str, FingerprintHit] = {}
    for oracle in ("wr", "eh", "difft"):
        for failure in failures.get(oracle, []):
            fingerprint = failure_fingerprint(
                failure, cells[failure.input_id], conf
            )
            hit = out.get(fingerprint.key)
            if hit is None:
                hit = FingerprintHit(
                    fingerprint, witness_input_id=failure.input_id
                )
                out[fingerprint.key] = hit
            hit.failures.append(failure)
    return out


# -- trial-shape helpers (shared with the classifier) ----------------------


def canonical_input(trial: Trial) -> str:
    """``canonical(py_value)``, cached on the (shared) test input."""
    test_input = trial.test_input
    cached = test_input.__dict__.get("_canonical_py")
    if cached is None:
        cached = canonical(test_input.py_value)
        object.__setattr__(test_input, "_canonical_py", cached)
    return cached


def _column_type(trial: Trial):
    return trial.test_input.column_type


def is_narrow_int(trial: Trial) -> bool:
    return isinstance(_column_type(trial), (ByteType, ShortType))


def is_wide_int(trial: Trial) -> bool:
    return isinstance(_column_type(trial), (IntegerType, LongType))


def has_non_string_map_key(trial: Trial) -> bool:
    dtype = _column_type(trial)
    return isinstance(dtype, MapType) and not isinstance(
        dtype.key_type, StringType
    )


def sql_rejected(trial: Trial) -> bool:
    return (
        trial.plan.writer == "sparksql"
        and not trial.outcome.ok
        and trial.outcome.stage == "write"
    )


def df_nulled(trial: Trial) -> bool:
    return (
        trial.plan.writer == "dataframe"
        and trial.outcome.ok
        and trial.outcome.value is None
    )


def df_mangled(trial: Trial) -> bool:
    """DataFrame path stored a different (e.g. wrapped) value."""
    if trial.plan.writer != "dataframe" or not trial.outcome.ok:
        return False
    value = trial.outcome.value
    if value is None or value is NO_ROWS:
        return False
    return canonical(value) != canonical_input(trial)
