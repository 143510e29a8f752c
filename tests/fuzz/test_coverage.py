"""Coverage features: derived from each trial's outcome and conf.

The derivation must give exactly what a traced trial shows:
``traced_features`` below reads the same features off a trial's
boundary spans and seam events, and is the reference the derivation
is pinned against.
"""

import pytest

from repro.crosstest.executor import execute
from repro.crosstest.fingerprint import outcome_shape, type_shape
from repro.crosstest.harness import Outcome, Trial
from repro.crosstest.plans import ALL_PLANS, FORMATS
from repro.crosstest.smoke import smoke_inputs
from repro.crosstest.values import TestInput
from repro.fuzz.coverage import CoverageMap, trial_features
from repro.fuzz.generators import (
    CONF_MENU,
    FUZZ_ID_BASE,
    gen_candidate,
    gen_conf,
)

#: the seam events the reference reads, with the attributes that are
#: pure functions of ``(input, conf)``; cache, replay and fault events
#: depend on worker history and never counted
EVENT_ATTRS = {
    "cast.store_assignment": ("policy", "ansi"),
    "orc.positional_rename": ("prefix",),
}


def traced_features(trial, spans):
    """The reference: every boundary span as ``span:<boundary>:
    <operation>:<status>``, the allowlisted attributes of the two seam
    events, and the trial's type and verdict features."""
    features = {
        f"type:{type_shape(trial.test_input.type_text)}",
        f"verdict:{trial.plan.group}:{trial.fmt}:"
        f"{outcome_shape(trial.outcome, trial.test_input)}",
    }
    for span in spans:
        if span.boundary:
            features.add(
                f"span:{span.boundary}:{span.operation}:{span.status}"
            )
        for event in span.events:
            allowed = EVENT_ATTRS.get(event.name)
            if allowed is None:
                continue
            detail = ",".join(
                f"{key}={event.attributes.get(key)}"
                for key in allowed
                if key in event.attributes
            )
            features.add(f"event:{event.name}:{detail}")
    return features


def _mismatches(inputs, conf):
    """Trials, run traced with the plan cache off as rounds run, whose
    derived features differ from the reference over their spans."""
    sink = {}
    trials = execute(
        ALL_PLANS, FORMATS, inputs,
        {**conf, "repro.plan.cache.enabled": "false"},
        jobs=1, trace_sink=sink,
    )
    assert sorted(sink) == list(range(len(trials)))
    return [
        (trial.plan.name, trial.fmt, trial.test_input.input_id)
        for index, trial in enumerate(trials)
        if trial_features(trial, conf) != traced_features(trial, sink[index])
    ]


@pytest.mark.parametrize(
    "conf",
    CONF_MENU,
    ids=lambda conf: ",".join(f"{k}={v}" for k, v in conf.items())
    or "defaults",
)
def test_derivation_matches_the_traced_smoke_corpus(conf):
    assert _mismatches(smoke_inputs(), conf) == []


@pytest.mark.parametrize("seed", [5, 1337])
def test_derivation_matches_traced_generated_inputs(seed):
    # 64 candidates: 8 rounds of 8, each under its round's drawn conf
    confs = set()
    for round_index in range(8):
        conf = gen_conf(seed, round_index)
        confs.add(tuple(sorted(conf.items())))
        inputs = [
            gen_candidate(
                seed, round_index, slot,
                FUZZ_ID_BASE + 8 * round_index + slot,
            )
            for slot in range(8)
        ]
        assert _mismatches(inputs, conf) == [], (round_index, conf)
    assert len(confs) > 1


def _trial():
    test_input = TestInput(
        input_id=1,
        type_text="decimal(5,2)",
        sql_literal="1.5",
        py_value=1.5,
        valid=True,
    )
    return Trial(
        plan=ALL_PLANS[0],
        fmt="orc",
        test_input=test_input,
        outcome=Outcome(status="ok", value=1.5, row_count=1),
    )


def test_type_and_verdict_features_are_always_present():
    features = trial_features(_trial(), {})
    assert any(f.startswith("type:decimal") for f in features)
    assert any(f.startswith("verdict:") for f in features)


def test_coverage_map_promotes_only_first_sightings():
    coverage = CoverageMap()
    first = coverage.observe({"a", "b"})
    assert first == {"a", "b"}
    second = coverage.observe({"b", "c"})
    assert second == {"c"}
    assert len(coverage) == 3
    assert coverage.observe({"a", "c"}) == set()
