"""Seeded generators for cross-test inputs, values and conf mutations.

The curated §8 corpus covers documented boundary values; the fuzzer
explores the space *around* them — nested types beyond the curated set,
hash-derived values per type family, and deployment-conf mutations.
Every choice is a pure function of ``(seed, round, slot)`` hashed
through BLAKE2b (the same discipline as :mod:`repro.faults.core`): no
live RNG, no process-dependent ``hash()``, so a campaign replays
byte-identically at any ``--jobs``/pool setting and across machines.

Generated inputs are plain :class:`~repro.crosstest.values.TestInput`
records (picklable, so they cross the executor's process pool) with
``input_id >= FUZZ_ID_BASE`` to keep them disjoint from the curated
corpus ids.
"""

from __future__ import annotations

import datetime
import decimal
from hashlib import blake2b

from repro.common.types import (
    ArrayType,
    CharType,
    DataType,
    DecimalType,
    MapType,
    StructType,
    VarcharType,
    parse_type,
)
from repro.crosstest.values import TestInput

__all__ = [
    "FUZZ_ID_BASE",
    "FAMILIES",
    "CONF_MENU",
    "Draws",
    "gen_candidate",
    "mutate",
    "gen_conf",
    "render_literal",
    "is_valid_for",
]

#: fuzz-generated inputs get ids from here up, disjoint from the
#: curated corpus (422 inputs, ids 0..421).
FUZZ_ID_BASE = 100_000

#: the type families the candidate stream cycles through — rotation,
#: not chance, so every family is exercised within one batch cycle.
FAMILIES = (
    "boolean",
    "tinyint",
    "smallint",
    "int",
    "bigint",
    "float",
    "double",
    "decimal",
    "string",
    "char",
    "varchar",
    "binary",
    "date",
    "timestamp",
    "timestamp_ntz",
    "array",
    "map",
    "struct",
)

#: deployment-conf mutations the scheduler can draw per round. Entry 0
#: (defaults) is weighted: the first rounds always run the stock
#: deployment so baseline mechanisms are found before conf variants.
#: (``repro.plan.cache.enabled`` is deliberately not in the menu — the
#: scheduler forces it off on every fuzz batch, so a mutation toggling
#: it would alias the default deployment.)
CONF_MENU: tuple[dict[str, object], ...] = (
    {},
    {"spark.sql.storeAssignmentPolicy": "legacy"},
    {"spark.sql.storeAssignmentPolicy": "strict"},
    {"spark.sql.legacy.charVarcharAsString": "true"},
    {"spark.sql.timestampType": "TIMESTAMP_NTZ"},
    {"spark.sql.legacy.timeParserPolicy": "LEGACY"},
)


def _hash_int(*parts: object) -> int:
    """Map a decision key to a 64-bit int, process-independent."""
    key = "\x1f".join(str(part) for part in parts).encode("utf-8")
    return int.from_bytes(blake2b(key, digest_size=8).digest(), "big")


class Draws:
    """A deterministic decision stream for one ``(seed, round, slot)``.

    Each call folds an incrementing counter plus a human-readable tag
    into the hash, so two draws with the same tag still differ and the
    stream is insensitive to *how many* draws other code paths made.
    """

    def __init__(self, seed: int, round_index: int, slot: int) -> None:
        self._key = (seed, round_index, slot)
        self._counter = 0

    def _next(self, tag: str) -> int:
        value = _hash_int(*self._key, self._counter, tag)
        self._counter += 1
        return value

    def integer(self, tag: str, lo: int, hi: int) -> int:
        """A draw in ``[lo, hi]`` inclusive."""
        return lo + self._next(tag) % (hi - lo + 1)

    def choice(self, tag: str, options):
        return options[self._next(tag) % len(options)]

    def boolean(self, tag: str, num: int = 1, den: int = 2) -> bool:
        """True with probability ``num/den`` (exact, not float)."""
        return self._next(tag) % den < num


# ---------------------------------------------------------------------------
# literal rendering — mirrors the curated corpus spellings exactly, so
# every generated literal stays inside the grammar `sql.parser` accepts
# ---------------------------------------------------------------------------

_INT_SUFFIX = {"tinyint": "Y", "smallint": "S", "int": "", "bigint": "L"}


def _sql_str(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def render_literal(dtype: DataType, value: object) -> str:
    """The SQL spelling of ``value`` typed as ``dtype``.

    Only called for values that *are* instances of the type (valid
    candidates and element values inside nested literals); invalid
    candidates render their own mismatched literal at the call site.
    """
    name = type(dtype).__name__
    if value is None:
        return "NULL"
    if name == "BooleanType":
        return "TRUE" if value else "FALSE"
    if name in ("ByteType", "ShortType", "IntegerType", "LongType"):
        suffix = {
            "ByteType": "Y",
            "ShortType": "S",
            "IntegerType": "",
            "LongType": "L",
        }[name]
        return f"{value}{suffix}"
    if name in ("FloatType", "DoubleType"):
        fn = "float" if name == "FloatType" else "double"
        assert isinstance(value, float)
        if value != value:  # NaN
            return f"{fn}('NaN')"
        if value == float("inf"):
            return f"{fn}('Infinity')"
        if value == float("-inf"):
            return f"{fn}('-Infinity')"
        return f"{value!r}{'F' if fn == 'float' else 'D'}"
    if name == "DecimalType":
        assert isinstance(dtype, DecimalType)
        return f"CAST('{value}' AS {dtype.simple_string()})"
    if name in ("StringType", "CharType", "VarcharType"):
        return _sql_str(str(value))
    if name == "BinaryType":
        assert isinstance(value, bytes)
        return f"X'{value.hex().upper()}'"
    if name == "DateType":
        return f"DATE '{value.isoformat()}'"  # type: ignore[attr-defined]
    if name == "TimestampType":
        return f"TIMESTAMP '{value:%Y-%m-%d %H:%M:%S}'"
    if name == "TimestampNTZType":
        return f"TIMESTAMP_NTZ '{value:%Y-%m-%d %H:%M:%S}'"
    if name == "ArrayType":
        assert isinstance(dtype, ArrayType)
        items = ", ".join(
            render_literal(dtype.element_type, item) for item in value
        )
        return f"array({items})"
    if name == "MapType":
        assert isinstance(dtype, MapType)
        pairs = ", ".join(
            f"{render_literal(dtype.key_type, k)}, "
            f"{render_literal(dtype.value_type, v)}"
            for k, v in value.items()
        )
        return f"map({pairs})"
    if name == "StructType":
        assert isinstance(dtype, StructType)
        parts = ", ".join(
            f"{_sql_str(field.name)}, "
            f"{render_literal(field.data_type, item)}"
            for field, item in zip(dtype.fields, value)
        )
        return f"named_struct({parts})"
    raise ValueError(f"no literal rendering for {name}")


def is_valid_for(dtype: DataType, value: object) -> bool:
    """Whether ``value`` is a valid instance of the declared column type.

    The shrinker re-derives validity after every mutation; generation
    asserts its own candidates against the same predicate so the
    ``valid`` flag the oracles trust is never hand-waved.
    """
    return dtype.accepts(value)


# ---------------------------------------------------------------------------
# type generation
# ---------------------------------------------------------------------------

_ATOMIC_POOL = (
    "boolean",
    "tinyint",
    "smallint",
    "int",
    "bigint",
    "float",
    "double",
    "string",
    "date",
    "timestamp",
)

_STRUCT_NAMES = ("a", "b", "c", "val", "f1", "Aa", "bB", "Nested")

_MAP_KEY_TYPES = ("string", "int", "bigint")


def _gen_decimal_type(draws: Draws) -> str:
    precision = draws.integer("dec.p", 3, 20)
    scale = draws.integer("dec.s", 0, min(precision, 8))
    return f"decimal({precision},{scale})"


def _gen_atomic(draws: Draws, family: str) -> str:
    if family == "decimal":
        return _gen_decimal_type(draws)
    if family == "char":
        return f"char({draws.integer('char.n', 1, 8)})"
    if family == "varchar":
        return f"varchar({draws.integer('varchar.n', 1, 12)})"
    return family


def _gen_element_type(draws: Draws, tag: str, depth: int) -> str:
    """An element/value type for a container, nesting at most once more."""
    if depth < 1 and draws.boolean(f"{tag}.nest", 1, 4):
        inner = draws.choice(f"{tag}.inner", ("array", "struct"))
        return _gen_container(draws, inner, depth + 1)
    base = draws.choice(f"{tag}.atomic", _ATOMIC_POOL + ("decimal",))
    if base == "decimal":
        return _gen_decimal_type(draws)
    return base


def _gen_container(draws: Draws, family: str, depth: int = 0) -> str:
    if family == "array":
        return f"array<{_gen_element_type(draws, 'arr', depth)}>"
    if family == "map":
        key = draws.choice("map.key", _MAP_KEY_TYPES)
        return f"map<{key},{_gen_element_type(draws, 'map.val', depth)}>"
    count = draws.integer("struct.n", 1, 3)
    fields = []
    for index in range(count):
        name = draws.choice(f"struct.name.{index}", _STRUCT_NAMES)
        # struct field names must be unique; suffix repeats
        while any(name == existing.split(":")[0] for existing in fields):
            name = f"{name}{index}"
        fields.append(
            f"{name}:{_gen_element_type(draws, f'struct.{index}', depth)}"
        )
    return f"struct<{','.join(fields)}>"


def gen_type(draws: Draws, family: str) -> str:
    if family in ("array", "map", "struct"):
        return _gen_container(draws, family)
    return _gen_atomic(draws, family)


# ---------------------------------------------------------------------------
# value generation
# ---------------------------------------------------------------------------

_WORDS = (
    "hello",
    "data",
    "x",
    "it's",
    "NULL",
    "héllo",
    "数据",
    "  pad  ",
    "zz-top",
    "",
)

_INTEGRAL_BOUNDS = {
    "ByteType": (-128, 127),
    "ShortType": (-32768, 32767),
    "IntegerType": (-2147483648, 2147483647),
    "LongType": (-9223372036854775808, 9223372036854775807),
}


def _valid_value(draws: Draws, dtype: DataType, tag: str) -> object:
    """A valid Python value for ``dtype`` (element values included)."""
    name = type(dtype).__name__
    if name == "BooleanType":
        return draws.boolean(f"{tag}.bool")
    if name in _INTEGRAL_BOUNDS:
        lo, hi = _INTEGRAL_BOUNDS[name]
        kind = draws.choice(f"{tag}.ikind", ("small", "lo", "hi", "zero"))
        if kind == "zero":
            return 0
        if kind == "lo":
            return lo
        if kind == "hi":
            return hi
        return draws.integer(f"{tag}.ival", max(lo, -999), min(hi, 999))
    if name in ("FloatType", "DoubleType"):
        return draws.choice(
            f"{tag}.fval",
            (
                0.0,
                1.5,
                -3.25,
                10.0,
                0.125,
                1e10,
                float("nan"),
                float("inf"),
                float("-inf"),
            ),
        )
    if name == "DecimalType":
        assert isinstance(dtype, DecimalType)
        integral = dtype.precision - dtype.scale
        digits = draws.integer(f"{tag}.ddig", 0, 10 ** min(integral, 6) - 1)
        sign = "-" if draws.boolean(f"{tag}.dsign", 1, 3) else ""
        if dtype.scale:
            frac = draws.integer(f"{tag}.dfrac", 0, 10**dtype.scale - 1)
            text = f"{sign}{digits}.{frac:0{dtype.scale}d}"
        else:
            text = f"{sign}{digits}"
        return decimal.Decimal(text)
    if name == "StringType":
        return draws.choice(f"{tag}.sval", _WORDS)
    if name == "CharType":
        assert isinstance(dtype, CharType)
        length = draws.integer(f"{tag}.clen", 1, dtype.length)
        return "abcdefgh"[:length]
    if name == "VarcharType":
        assert isinstance(dtype, VarcharType)
        length = draws.integer(f"{tag}.vlen", 0, dtype.length)
        return "vwxyzabcdefg"[:length]
    if name == "BinaryType":
        count = draws.integer(f"{tag}.blen", 0, 4)
        return bytes(
            draws.integer(f"{tag}.byte.{index}", 0, 255)
            for index in range(count)
        )
    if name == "DateType":
        return datetime.date(
            draws.integer(f"{tag}.year", 1900, 2100),
            draws.integer(f"{tag}.month", 1, 12),
            draws.integer(f"{tag}.day", 1, 28),
        )
    if name in ("TimestampType", "TimestampNTZType"):
        return datetime.datetime(
            draws.integer(f"{tag}.year", 1970, 2100),
            draws.integer(f"{tag}.month", 1, 12),
            draws.integer(f"{tag}.day", 1, 28),
            draws.integer(f"{tag}.hour", 0, 23),
            draws.integer(f"{tag}.minute", 0, 59),
            draws.integer(f"{tag}.second", 0, 59),
        )
    if name == "ArrayType":
        assert isinstance(dtype, ArrayType)
        count = draws.integer(f"{tag}.alen", 1, 3)
        items = [
            _valid_value(draws, dtype.element_type, f"{tag}.a{index}")
            for index in range(count)
        ]
        if draws.boolean(f"{tag}.anull", 1, 5):
            items[0] = None
        return items
    if name == "MapType":
        assert isinstance(dtype, MapType)
        count = draws.integer(f"{tag}.mlen", 1, 2)
        out = {}
        for index in range(count):
            key = _valid_value(draws, dtype.key_type, f"{tag}.mk{index}")
            while key is None or key in out:
                index += 100
                key = _valid_value(draws, dtype.key_type, f"{tag}.mk{index}")
            out[key] = _valid_value(
                draws, dtype.value_type, f"{tag}.mv{index}"
            )
        return out
    if name == "StructType":
        assert isinstance(dtype, StructType)
        return [
            _valid_value(draws, field.data_type, f"{tag}.s{index}")
            for index, field in enumerate(dtype.fields)
        ]
    raise ValueError(f"no value generator for {name}")


def _expected_for(dtype: DataType, value: object) -> object | None:
    """The round-trip expectation when it differs from the raw value."""
    if isinstance(dtype, CharType) and isinstance(value, str):
        padded = value.ljust(dtype.length)
        return padded if padded != value else None
    return None


def _invalid_candidate(
    draws: Draws, family: str, type_text: str, dtype: DataType
) -> tuple[str, object, str]:
    """(sql_literal, py_value, description) for an invalid input.

    Shapes mirror the corpus's invalid families: overflow, malformed
    strings, precision violations, overlength, and kind mismatches —
    the behaviours the §8 oracles and classifier recognize.
    """
    if family in ("tinyint", "smallint", "int", "bigint"):
        lo, hi = _INTEGRAL_BOUNDS[type(dtype).__name__]
        if draws.boolean("inv.int.kind"):
            value = draws.choice(
                "inv.int.over",
                (hi + 1, lo - 1, hi + draws.integer("inv.int.k", 2, 999)),
            )
            return str(value), value, f"fuzz {family} overflow {value}"
        text = draws.choice(
            "inv.int.bad", ("12abc", "--3", "1_0", "0x1G", "bad-7")
        )
        return _sql_str(text), text, f"fuzz {family} malformed {text!r}"
    if family == "decimal":
        assert isinstance(dtype, DecimalType)
        integral = dtype.precision - dtype.scale
        digits = "9" * (integral + draws.integer("inv.dec.extra", 1, 3))
        text = f"{digits}.{'9' * dtype.scale}" if dtype.scale else digits
        return text, decimal.Decimal(text), f"fuzz decimal overflow {text}"
    if family == "boolean":
        text = draws.choice(
            "inv.bool", ("maybe", "tru", "yess", "2", "on", "offf")
        )
        return _sql_str(text), text, f"fuzz boolean invalid {text!r}"
    if family == "date":
        text = draws.choice(
            "inv.date",
            (
                "2021-02-30",
                "2021-13-01",
                "not-a-date",
                "2021/01/01",
                f"{draws.integer('inv.date.y', 1990, 2030)}-00-10",
            ),
        )
        return f"DATE '{text}'", text, f"fuzz date invalid {text!r}"
    if family in ("timestamp", "timestamp_ntz"):
        text = draws.choice(
            "inv.ts",
            ("2021-02-30 00:00:00", "nope", "2021-01-01 25:61:00"),
        )
        keyword = "TIMESTAMP_NTZ" if family == "timestamp_ntz" else "TIMESTAMP"
        return f"{keyword} '{text}'", text, f"fuzz {family} invalid {text!r}"
    if family in ("char", "varchar"):
        limit = dtype.length  # type: ignore[attr-defined]
        text = "overlong"[: limit % 8] + "x" * (
            limit + draws.integer("inv.len", 1, 6)
        )
        return _sql_str(text), text, f"fuzz {family}({limit}) overlong"
    if family in ("float", "double"):
        text = draws.choice("inv.float", ("one.two", "1.2.3", "NaN?"))
        return _sql_str(text), text, f"fuzz {family} malformed {text!r}"
    if family == "binary":
        value = draws.integer("inv.bin", 10, 999)
        return str(value), value, f"fuzz int into binary {value}"
    # containers: kind mismatches, as in the curated corpus
    if family == "array":
        return "'not-an-array'", "not-an-array", "fuzz string into array"
    if family == "map":
        value = draws.integer("inv.map", 1, 99)
        return str(value), value, f"fuzz int into map {value}"
    if family == "struct":
        value = draws.integer("inv.struct", 1, 99)
        return str(value), value, f"fuzz int into struct {value}"
    if family == "string":
        # strings accept anything textual; mismatch with a date literal
        day = datetime.date(2020, 1, draws.integer("inv.str.day", 1, 28))
        return str(12345), 12345, f"fuzz int into string (day {day})"
    raise ValueError(f"no invalid recipe for {family}")


def gen_candidate(
    seed: int, round_index: int, slot: int, input_id: int
) -> TestInput:
    """Generate one fresh test input for ``(seed, round, slot)``.

    The type family rotates with the global candidate index and the
    valid/invalid flag alternates per full family cycle, so a batch
    cycle exercises every family in both polarities before chance gets
    a vote; everything *inside* a family is hash-derived.
    """
    draws = Draws(seed, round_index, slot)
    index = input_id - FUZZ_ID_BASE
    family = FAMILIES[index % len(FAMILIES)]
    want_valid = (index // len(FAMILIES)) % 2 == 0
    type_text = gen_type(draws, family)
    dtype = parse_type(type_text)
    if want_valid:
        value = _valid_value(draws, dtype, "v")
        return TestInput(
            input_id=input_id,
            type_text=type_text,
            sql_literal=render_literal(dtype, value),
            py_value=value,
            valid=True,
            description=f"fuzz {family} r{round_index}s{slot}",
            expected=_expected_for(dtype, value),
        )
    literal, value, description = _invalid_candidate(
        draws, family, type_text, dtype
    )
    if is_valid_for(dtype, value):  # pragma: no cover - recipe invariant
        raise AssertionError(
            f"invalid recipe produced a valid value: {type_text} {value!r}"
        )
    return TestInput(
        input_id=input_id,
        type_text=type_text,
        sql_literal=literal,
        py_value=value,
        valid=False,
        description=description,
    )


def mutate(
    seed: int,
    round_index: int,
    slot: int,
    input_id: int,
    parent: TestInput,
) -> TestInput:
    """Mutate a coverage-selected seed input into a nearby candidate.

    Mutations keep the parent's declared type and redraw the value
    (same or flipped polarity), or lift the type into an array — the
    small neighbourhood moves that turn one mechanism witness into
    probes of adjacent mechanisms.
    """
    draws = Draws(seed, round_index, slot)
    op = draws.choice("mut.op", ("revalue", "flip", "wrap"))
    type_text = parent.type_text
    if op == "wrap" and not parent.type_text.startswith(
        ("array<", "map<", "struct<")
    ):
        type_text = f"array<{parent.type_text}>"
        dtype = parse_type(type_text)
        value = _valid_value(draws, dtype, "mut")
        return TestInput(
            input_id=input_id,
            type_text=type_text,
            sql_literal=render_literal(dtype, value),
            py_value=value,
            valid=True,
            description=f"fuzz wrap of {parent.input_id}",
            expected=_expected_for(dtype, value),
        )
    dtype = parse_type(type_text)
    want_valid = parent.valid if op == "revalue" else not parent.valid
    family = _family_of(type_text)
    if want_valid:
        value = _valid_value(draws, dtype, "mut")
        return TestInput(
            input_id=input_id,
            type_text=type_text,
            sql_literal=render_literal(dtype, value),
            py_value=value,
            valid=True,
            description=f"fuzz revalue of {parent.input_id}",
            expected=_expected_for(dtype, value),
        )
    literal, value, description = _invalid_candidate(
        draws, family, type_text, dtype
    )
    if is_valid_for(dtype, value):  # pragma: no cover - recipe invariant
        raise AssertionError(
            f"invalid recipe produced a valid value: {type_text} {value!r}"
        )
    return TestInput(
        input_id=input_id,
        type_text=type_text,
        sql_literal=literal,
        py_value=value,
        valid=False,
        description=description,
    )


def _family_of(type_text: str) -> str:
    head = type_text.split("<", 1)[0].split("(", 1)[0]
    return head if head in FAMILIES else "string"


def gen_conf(seed: int, round_index: int) -> dict[str, object]:
    """The deployment-conf mutation for one round.

    The first two rounds always run the stock deployment; later rounds
    draw from :data:`CONF_MENU` with a bias toward defaults.
    """
    if round_index < 2:
        return {}
    pick = _hash_int(seed, round_index, "conf") % (len(CONF_MENU) + 3)
    if pick >= len(CONF_MENU):
        return {}
    return dict(CONF_MENU[pick])
