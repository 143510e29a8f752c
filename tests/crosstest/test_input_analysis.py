"""The workers' per-input analysis equals the old whole-run pass.

``run_crosstest`` runs the oracles, classification and fault verdicts
once per input, in the worker that ran its trials, and merges the
results. The reference here is the parent-side pass it replaced:
``all_failures`` and ``classify_trials`` over the report's full trial
list, and ``fault_robustness`` over the whole run against fault-free
reruns on fresh deployments. ``report.fingerprints`` is checked against
the per-failure pass ``run_fingerprints`` replaced, which rebuilt the
failure's input bucket into a ``(plan, fmt)`` map for every failure.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro.crosstest.classify import classify_trials
from repro.crosstest.fingerprint import (
    Fingerprint,
    FingerprintHit,
    conf_label,
    outcome_shape,
    type_shape,
)
from repro.crosstest.harness import Deployment, run_trial_on
from repro.crosstest.oracles import all_failures, fault_robustness
from repro.crosstest.report import run_crosstest
from repro.crosstest.smoke import smoke_inputs
from repro.crosstest.values import generate_inputs
from repro.faults import BUILTIN_PLANS
from repro.fuzz.generators import (
    CONF_MENU,
    FUZZ_ID_BASE,
    gen_candidate,
    gen_conf,
)


def _fields(failures):
    return [
        tuple(getattr(f, field.name) for field in dataclasses.fields(f))
        for f in failures
    ]


def _reference_fingerprints(trials, failures, conf):
    """Each failure fingerprinted against its whole input bucket."""
    buckets = {}
    for trial in trials:
        buckets.setdefault(trial.test_input.input_id, []).append(trial)
    out = {}
    for oracle in ("wr", "eh", "difft"):
        for failure in failures[oracle]:
            bucket = buckets[failure.input_id]
            by_cell = {(t.plan.name, t.fmt): t for t in bucket}
            test_input = bucket[0].test_input
            if failure.oracle in ("wr", "eh"):
                fmt = failure.fmt
                trial = by_cell[(failure.plans[0], fmt)]
                evidence = outcome_shape(trial.outcome, test_input)
            else:
                if failure.axis == "fmt":
                    left_fmt, right_fmt = failure.labels
                    fmt = f"{left_fmt}<>{right_fmt}"
                else:
                    left_fmt = right_fmt = fmt = failure.fmt
                left = by_cell[(failure.plans[0], left_fmt)]
                right = by_cell[(failure.plans[1], right_fmt)]
                evidence = (
                    f"{outcome_shape(left.outcome, test_input)}"
                    f"<>{outcome_shape(right.outcome, test_input)}"
                )
            fingerprint = Fingerprint(
                oracle=failure.oracle,
                group=failure.group,
                fmt=fmt,
                plans=failure.plans,
                type_shape=type_shape(test_input.type_text),
                evidence=evidence,
                conf=conf,
            )
            if fingerprint.key not in out:
                out[fingerprint.key] = FingerprintHit(
                    fingerprint, witness_input_id=failure.input_id
                )
            out[fingerprint.key].failures.append(failure)
    return out


def assert_matches_whole_run_pass(report, conf_overrides=None):
    failures = all_failures(report.trials)
    assert list(report.failures) == list(failures)
    for oracle, expected in failures.items():
        assert _fields(report.failures[oracle]) == _fields(expected), oracle
    evidence = classify_trials(report.trials)
    assert list(report.evidence) == list(evidence)
    for number, expected in evidence.items():
        got = report.evidence[number]
        assert got.number == number
        # the report's own Trial objects, in the same order
        assert [id(t) for t in got.trials] == [
            id(t) for t in expected.trials
        ], number
    label = conf_label(conf_overrides)
    hits = report.fingerprints(label)
    expected_hits = _reference_fingerprints(
        report.trials, report.failures, label
    )
    assert list(hits) == list(expected_hits)
    for key, expected in expected_hits.items():
        got = hits[key]
        assert got.fingerprint == expected.fingerprint, key
        assert [id(f) for f in got.failures] == [
            id(f) for f in expected.failures
        ], key
        assert got.witness_input_id == expected.witness_input_id, key


@pytest.mark.parametrize(
    "jobs,pool", [(1, "auto"), (2, "thread"), (2, "process")]
)
def test_curated_corpus(jobs, pool):
    report = run_crosstest(jobs=jobs, pool=pool)
    assert len(report.found_numbers) == 15
    assert_matches_whole_run_pass(report)


def test_curated_corpus_under_a_menu_conf():
    conf = CONF_MENU[1]
    assert conf_label(conf)
    report = run_crosstest(conf_overrides=conf, jobs=2)
    assert_matches_whole_run_pass(report, conf)


def test_smoke_corpus_under_the_smoke_fault_plan():
    report = run_crosstest(
        inputs=smoke_inputs(),
        jobs=2,
        fault_plan=BUILTIN_PLANS["smoke"],
        fault_seed=3,
    )
    assert report.faults is not None and report.faults.injected_trials
    assert_matches_whole_run_pass(report)


def test_traced_subset():
    report = run_crosstest(
        inputs=generate_inputs()[::10], jobs=2, tracing=True
    )
    assert_matches_whole_run_pass(report)
    # every input's oracles traced in its worker, in input order; no
    # fault plan ran, so there is no robustness verdict to trace
    names = [span.name for span in report.oracle_spans]
    assert names == ["oracle.wr", "oracle.eh", "oracle.difft"] * len(
        generate_inputs()[::10]
    )


@pytest.mark.parametrize("seed", [7, 1337])
def test_generated_inputs(seed):
    inputs = [
        gen_candidate(seed, 0, slot, FUZZ_ID_BASE + slot)
        for slot in range(64)
    ]
    conf = gen_conf(seed, 0)
    report = run_crosstest(inputs=inputs, conf_overrides=conf, jobs=2)
    assert report.failures["difft"] and report.failures["wr"]
    assert_matches_whole_run_pass(report, conf)


def _reference_verdicts(report):
    """The parent-side robustness pass the workers replaced: every
    injected trial re-run fault-free on a fresh deployment, then one
    ``fault_robustness`` call over the whole run."""
    baselines = {}
    for index in report.faults.injections:
        trial = report.trials[index]
        baselines[index] = run_trial_on(
            Deployment(), trial.plan, trial.fmt, trial.test_input
        ).outcome
    return fault_robustness(
        report.trials, report.faults.injections, baselines
    )


FAULT_CASES = [
    ("smoke", 3, "smoke"),
    ("smoke", 1337, "smoke"),
    ("smoke", 7, "torn-writes"),
    ("smoke", 7, "stale-metastore"),
    ("smoke", 7, "metastore-brownout"),
    ("smoke", 7, "chaos"),
    ("every-tenth", 11, "chaos"),
]


@pytest.mark.parametrize(
    "corpus,seed,plan",
    FAULT_CASES,
    ids=[f"{corpus}-{plan}-{seed}" for corpus, seed, plan in FAULT_CASES],
)
def test_fault_verdicts_match_the_whole_run_pass(corpus, seed, plan):
    inputs = smoke_inputs() if corpus == "smoke" else generate_inputs()[::10]
    faults = {"fault_plan": BUILTIN_PLANS[plan], "fault_seed": seed}
    report = run_crosstest(inputs=inputs, jobs=2, pool="process", **faults)
    assert report.faults is not None and report.faults.injected_trials
    assert_matches_whole_run_pass(report)
    assert report.faults.verdicts == _reference_verdicts(report)
    assert sorted(report.faults.injections) == sorted(report.faults.verdicts)
    expected = json.dumps(report.faults.to_json())
    for options in (
        {"jobs": 1},
        {"jobs": 2, "pool": "thread"},
        {"jobs": 1, "batch": False},
    ):
        again = run_crosstest(inputs=inputs, **options, **faults)
        assert json.dumps(again.faults.to_json()) == expected, options


def test_fault_verdicts_trace_only_oracle_work():
    # the fault-free reruns run before the oracle tracer opens, so the
    # oracle trace holds oracle spans alone: three per input, plus one
    # robustness verdict per input that had an injected trial
    report = run_crosstest(
        inputs=smoke_inputs(),
        jobs=2,
        tracing=True,
        fault_plan=BUILTIN_PLANS["smoke"],
        fault_seed=3,
    )
    spans = report.oracle_spans
    assert all(span.name.startswith("oracle.") for span in spans)
    injected = {
        report.trials[index].test_input.input_id
        for index in report.faults.verdicts
    }
    assert Counter(
        span.trace_id
        for span in spans
        if span.name == "oracle.fault_robustness"
    ) == {f"crosstest/oracles/{input_id}": 1 for input_id in injected}
    assert len(spans) == 3 * len(smoke_inputs()) + len(injected)
