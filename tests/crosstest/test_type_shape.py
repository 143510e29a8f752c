"""``type_shape`` against its original, unmemoized definition.

The shipped function is memoized and matches struct field names with a
precompiled pattern; the reference below is the definition it replaced,
kept verbatim in spirit: an uncompiled ``re.match`` on every suffix of a
struct type. Both must agree on every curated type text and on fuzz
candidates, whose struct types carry generated mixed-case field names.
"""

import re

import pytest

from repro.crosstest.fingerprint import _TYPE_PARAMS, type_shape
from repro.crosstest.values import generate_inputs
from repro.fuzz.generators import FUZZ_ID_BASE, gen_candidate


def reference_type_shape(type_text: str) -> str:
    text = _TYPE_PARAMS.sub("", type_text.replace(" ", ""))
    if not text.startswith("struct<"):
        return text

    def _strip_struct(chunk: str) -> str:
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


CURATED = sorted({i.type_text for i in generate_inputs()})
#: 200 candidates: two seeds, 100 slots each, in batches of 16
FUZZED = [
    gen_candidate(seed, index // 16, index % 16, FUZZ_ID_BASE + index)
    .type_text
    for seed in (5, 1337)
    for index in range(100)
]


def test_fuzz_texts_reach_structs():
    assert len(FUZZED) == 200
    assert any(text.startswith("struct<") for text in FUZZED)
    assert any(text.startswith("struct<") for text in CURATED)


@pytest.mark.parametrize(
    "texts", [CURATED, FUZZED], ids=["curated", "gen_candidate"]
)
def test_agrees_with_reference(texts):
    for text in texts:
        assert type_shape(text) == reference_type_shape(text), text
        # mixed-case and lower-cased read-back types take the same path
        assert type_shape(text.lower()) == reference_type_shape(text.lower())


def test_repeated_texts_hit_the_memo():
    text = "struct<Aa:decimal(10,2),b:array<char(3)>>"
    first = type_shape(text)
    before = type_shape.cache_info().hits
    assert type_shape(text) == first == "struct<F!:decimal,f:array<char>>"
    assert type_shape.cache_info().hits == before + 1
