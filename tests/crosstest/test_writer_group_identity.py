"""Writer groups against isolated trials, trial by trial, beyond smoke.

The default path shares one create and one write pass per ``(writer,
fmt)`` and scans once per reader; ``batch=False`` runs every trial
isolated on its own lease. Every trial's outcome must agree field by
field — values under :func:`values_equal`, so a NaN read back equals a
NaN — on the whole curated corpus under each conf the fuzzer can draw,
and on fuzz candidates under the confs their rounds draw (plan cache
off, as campaign rounds run them).
"""

import dataclasses

import pytest

from repro.common.row import values_equal
from repro.crosstest.executor import execute
from repro.crosstest.harness import Outcome
from repro.crosstest.plans import ALL_PLANS, FORMATS
from repro.crosstest.values import generate_inputs
from repro.fuzz.generators import (
    CONF_MENU,
    FUZZ_ID_BASE,
    gen_candidate,
    gen_conf,
)
from repro.fuzz.scheduler import _execution_conf

#: fuzz rounds per seed, of 16 candidates each
ROUNDS = 8
BATCH = 16

FIELDS = [f.name for f in dataclasses.fields(Outcome)]


def assert_same_trials(shared, isolated):
    assert len(shared) == len(isolated)
    for left, right in zip(shared, isolated):
        where = (left.plan.name, left.fmt, left.test_input.input_id)
        assert where == (
            right.plan.name, right.fmt, right.test_input.input_id
        )
        for name in FIELDS:
            a = getattr(left.outcome, name)
            b = getattr(right.outcome, name)
            same = values_equal(a, b) if name == "value" else a == b
            assert same, (where, name, a, b)


def run_both(inputs, conf):
    return [
        execute(ALL_PLANS, FORMATS, inputs, conf, jobs=1, batch=batch)
        for batch in (True, False)
    ]


@pytest.fixture(scope="module")
def curated():
    return generate_inputs()


def conf_id(conf):
    return ",".join(f"{k}={v}" for k, v in conf.items()) or "stock"


@pytest.mark.parametrize("conf", CONF_MENU, ids=conf_id)
def test_curated_corpus(curated, conf):
    assert_same_trials(*run_both(curated, dict(conf)))


@pytest.mark.parametrize("seed", [5, 1337])
def test_fuzz_candidates(seed):
    for round_index in range(ROUNDS):
        inputs = [
            gen_candidate(
                seed, round_index, slot,
                FUZZ_ID_BASE + round_index * BATCH + slot,
            )
            for slot in range(BATCH)
        ]
        conf = _execution_conf(gen_conf(seed, round_index))
        assert_same_trials(*run_both(inputs, conf))
