"""The workers' per-input analysis equals the old whole-run pass.

``run_crosstest`` runs the oracles and classification once per input,
in the worker that ran its trials, and merges the results. The
reference here is the parent-side pass it replaced: ``all_failures``
and ``classify_trials`` over the report's full trial list.
"""

import dataclasses

import pytest

from repro.crosstest.classify import classify_trials
from repro.crosstest.oracles import all_failures
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
    # every input's oracles traced in its worker, then the parent's
    # (empty, fault-free) robustness phase
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
