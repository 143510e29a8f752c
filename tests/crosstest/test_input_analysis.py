"""The workers' per-input analysis equals the old whole-run pass.

``run_crosstest`` runs the oracles, classification and fault verdicts
once per input, in the worker that ran its trials, and merges the
results. The reference here is the parent-side pass it replaced:
``all_failures`` and ``classify_trials`` over the report's full trial
list, and ``fault_robustness`` over the whole run against fault-free
reruns on fresh deployments.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro.crosstest.classify import classify_trials
from repro.crosstest.harness import Deployment, run_trial_on
from repro.crosstest.oracles import all_failures, fault_robustness
from repro.crosstest.report import run_crosstest
from repro.crosstest.smoke import smoke_inputs
from repro.crosstest.values import generate_inputs
from repro.faults import BUILTIN_PLANS
from repro.fuzz.generators import FUZZ_ID_BASE, gen_candidate, gen_conf


def _fields(failures):
    return [
        tuple(getattr(f, field.name) for field in dataclasses.fields(f))
        for f in failures
    ]


def assert_matches_whole_run_pass(report):
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


@pytest.mark.parametrize(
    "jobs,pool", [(1, "auto"), (2, "thread"), (2, "process")]
)
def test_curated_corpus(jobs, pool):
    report = run_crosstest(jobs=jobs, pool=pool)
    assert len(report.found_numbers) == 15
    assert_matches_whole_run_pass(report)


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
    report = run_crosstest(
        inputs=inputs, conf_overrides=gen_conf(seed, 0), jobs=2
    )
    assert report.failures["difft"] and report.failures["wr"]
    assert_matches_whole_run_pass(report)


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
