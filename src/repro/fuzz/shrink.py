"""Delta-debugging shrinker: minimize an input, preserve its fingerprint.

A novel finding's witness is whatever the generators happened to draw —
a 30-character varchar overflow, a three-element array. The shrinker
walks an ordered list of simplification proposals (shorter strings,
minimal overflows, single-element containers, smaller type parameters)
and greedily accepts any proposal that (a) is strictly smaller and
(b) still reproduces the finding's exact fingerprint when re-executed
through the real harness. Proposals are deterministic and re-execution
is ``jobs=1``, so a shrink is replayable like everything else here.
"""

from __future__ import annotations

import datetime
import decimal

from repro.common.types import (
    CharType,
    DecimalType,
    VarcharType,
    parse_type,
)
from repro.crosstest.executor import execute
from repro.crosstest.fingerprint import conf_label, run_fingerprints
from repro.crosstest.values import TestInput
from repro.fuzz.generators import is_valid_for, render_literal

__all__ = ["input_size", "shrink_input", "reproduces"]

#: cap on greedy passes; each pass re-executes a one-input matrix per
#: accepted proposal, so the bound keeps shrinking O(passes * proposals)
_MAX_PASSES = 6


def input_size(test_input: TestInput) -> int:
    """The quantity the shrinker minimizes."""
    return len(test_input.type_text) + len(test_input.sql_literal)


def reproduces(
    candidate: TestInput,
    fingerprint_key: str,
    plans,
    formats,
    conf_overrides: dict[str, object] | None,
) -> bool:
    """Does running just ``candidate`` still witness the fingerprint?

    A one-input matrix: one shard, whose writer groups write the input
    once and scan it once per reader — a one-input lane records exactly
    what the isolated trial does. Its fingerprints carry the label of
    the conf it ran under.
    """
    trials = execute(plans, formats, [candidate], conf_overrides, jobs=1)
    return fingerprint_key in run_fingerprints(
        trials, conf=conf_label(conf_overrides)
    )


def _literal_wrapper(parent_literal: str) -> str:
    """How the parent spelled its (invalid) string literal."""
    for keyword in ("DATE", "TIMESTAMP_NTZ", "TIMESTAMP"):
        if parent_literal.startswith(f"{keyword} '"):
            return keyword
    return ""


def _rebuild(parent: TestInput, type_text: str, value: object) -> TestInput | None:
    """A candidate input with the same mechanism-relevant structure."""
    try:
        dtype = parse_type(type_text)
    except Exception:  # noqa: BLE001 - malformed proposal, skip
        return None
    valid = is_valid_for(dtype, value)
    if valid:
        try:
            literal = render_literal(dtype, value)
        except (ValueError, AssertionError):
            return None
        expected = None
        if isinstance(dtype, CharType) and isinstance(value, str):
            padded = value.ljust(dtype.length)
            expected = padded if padded != value else None
        return TestInput(
            input_id=parent.input_id,
            type_text=type_text,
            sql_literal=literal,
            py_value=value,
            valid=True,
            description=f"shrunk: {parent.description}",
            expected=expected,
        )
    if isinstance(value, str):
        wrapper = _literal_wrapper(parent.sql_literal)
        quoted = "'" + value.replace("'", "''") + "'"
        literal = f"{wrapper} {quoted}" if wrapper else quoted
    elif isinstance(value, (int, decimal.Decimal)) and not isinstance(
        value, bool
    ):
        literal = str(value)
    else:
        return None  # no safe invalid spelling for this value shape
    return TestInput(
        input_id=parent.input_id,
        type_text=type_text,
        sql_literal=literal,
        py_value=value,
        valid=False,
        description=f"shrunk: {parent.description}",
    )


def _value_proposals(test_input: TestInput) -> list[object]:
    """Simpler values, most aggressive first. Deterministic order."""
    value = test_input.py_value
    dtype = test_input.column_type
    out: list[object] = []
    if isinstance(value, str):
        out.extend(["", "x", value[:1], value[: max(1, len(value) // 2)]])
        if isinstance(dtype, (CharType, VarcharType)) and not test_input.valid:
            # minimal overlength: one char past the limit
            out.insert(0, "x" * (dtype.length + 1))
    elif isinstance(value, bool):
        pass
    elif isinstance(value, int):
        out.extend([0, 1])
        bounds = getattr(type(dtype), "__name__", "")
        ranges = {
            "ByteType": (-128, 127),
            "ShortType": (-32768, 32767),
            "IntegerType": (-2147483648, 2147483647),
            "LongType": (-(2**63), 2**63 - 1),
        }
        if bounds in ranges and not test_input.valid:
            lo, hi = ranges[bounds]
            out.insert(0, hi + 1 if value > 0 else lo - 1)
    elif isinstance(value, decimal.Decimal):
        out.append(decimal.Decimal(0))
        if isinstance(dtype, DecimalType) and not test_input.valid:
            # minimal overflow: 10^(p-s) has exactly one digit too many
            out.insert(
                0,
                decimal.Decimal(10) ** (dtype.precision - dtype.scale),
            )
    elif isinstance(value, float):
        # IEEE specials are the mechanism; only shrink ordinary floats
        if value == value and abs(value) != float("inf"):
            out.extend([0.0, 1.5])
    elif isinstance(value, bytes):
        out.extend([b"", b"\x00"])
    elif isinstance(value, datetime.datetime):
        out.append(datetime.datetime(1970, 1, 1, 0, 0, 0))
    elif isinstance(value, datetime.date):
        out.append(datetime.date(1970, 1, 1))
    elif isinstance(value, list) and value:
        out.extend([value[:1], [None] if None in value else value[:1]])
    elif isinstance(value, dict) and len(value) > 1:
        first_key = next(iter(value))
        out.append({first_key: value[first_key]})
    deduped: list[object] = []
    for item in out:
        if item not in deduped or isinstance(item, float):
            deduped.append(item)
    return deduped


def _type_proposals(test_input: TestInput) -> list[str]:
    """Smaller type texts with the *same* canonical shape."""
    dtype = test_input.column_type
    out: list[str] = []
    if isinstance(dtype, DecimalType) and dtype.simple_string() != "decimal(3,1)":
        out.append("decimal(3,1)")
    if isinstance(dtype, VarcharType) and dtype.length > 3:
        out.append("varchar(3)")
    if isinstance(dtype, CharType) and dtype.length > 3:
        out.append("char(3)")
    return out


def shrink_input(
    test_input: TestInput,
    fingerprint_key: str,
    plans,
    formats,
    conf_overrides: dict[str, object] | None,
) -> TestInput:
    """Greedily minimize ``test_input`` while its fingerprint survives."""
    current = test_input
    for _ in range(_MAX_PASSES):
        improved = False
        candidates: list[TestInput] = []
        for type_text in _type_proposals(current):
            rebuilt = _rebuild(current, type_text, current.py_value)
            if rebuilt is not None:
                candidates.append(rebuilt)
        for value in _value_proposals(current):
            rebuilt = _rebuild(current, current.type_text, value)
            if rebuilt is not None:
                candidates.append(rebuilt)
        for candidate in candidates:
            if input_size(candidate) >= input_size(current):
                continue
            if reproduces(
                candidate,
                fingerprint_key,
                plans,
                formats,
                conf_overrides,
            ):
                current = candidate
                improved = True
                break
        if not improved:
            break
    return current
