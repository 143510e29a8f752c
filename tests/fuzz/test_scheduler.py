"""Campaign determinism and scheduler bookkeeping.

The acceptance bar: a fixed ``(seed, budget, baseline)`` produces
byte-identical fingerprint JSONL at ``--jobs 1/2/4`` across pool
flavours. These tests run small campaigns through every flavour and
compare the serialized records byte for byte.
"""

import json

import pytest

from repro.crosstest import executor
from repro.crosstest.fingerprint import Fingerprint
from repro.crosstest.values import TestInput
from repro.fuzz import (
    FUZZ_ID_BASE,
    Baseline,
    FuzzConfig,
    default_baseline_path,
    run_fuzz,
)
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.scheduler import (
    CrossTestMetrics,
    FuzzFinding,
    FuzzResult,
    trace_witness,
)


def _records_bytes(result):
    return "\n".join(
        json.dumps(record, sort_keys=True)
        for record in result.fingerprint_records()
    )


def _campaign(jobs, pool="auto", seed=11, budget=24, batch=12):
    config = FuzzConfig(
        seed=seed, budget=budget, batch=batch, jobs=jobs, pool=pool,
        shrink=False,
    )
    return run_fuzz(config, Baseline.empty())


@pytest.mark.parametrize(
    "jobs,pool",
    [(2, "thread"), (4, "thread"), (2, "process"), (4, "process")],
)
def test_fingerprints_are_byte_identical_across_jobs_and_pools(jobs, pool):
    sequential = _campaign(jobs=1)
    parallel = _campaign(jobs=jobs, pool=pool)
    assert _records_bytes(parallel) == _records_bytes(sequential)
    assert parallel.coverage.seen == sequential.coverage.seen
    assert parallel.rediscovered == sequential.rediscovered


def test_rerun_is_byte_identical_even_with_warm_caches():
    first = _campaign(jobs=1)
    second = _campaign(jobs=1)
    assert _records_bytes(first) == _records_bytes(second)


def test_different_seeds_explore_differently():
    a = _campaign(jobs=1, seed=1)
    b = _campaign(jobs=1, seed=2)
    assert set(a.findings) != set(b.findings)


def test_budget_counts_candidates_and_caps_rounds():
    result = _campaign(jobs=1, budget=20, batch=8)
    assert result.candidates == 20
    assert result.rounds == 3  # 8 + 8 + 4
    assert result.trials_run > result.candidates


def test_executed_input_ids_stay_above_fuzz_id_base(monkeypatch):
    executed = []
    real_execute = executor.execute

    def recording_execute(plans, formats, inputs, *args, **kwargs):
        inputs = list(inputs)
        executed.extend(inputs)
        return real_execute(plans, formats, inputs, *args, **kwargs)

    monkeypatch.setattr(executor, "execute", recording_execute)
    config = FuzzConfig(
        seed=3, budget=16, batch=8, jobs=1, use_corpus=True, shrink=False
    )
    result = run_fuzz(config, Baseline.empty())
    # corpus inputs (ids 0..421) seed mutations but are never executed
    for finding in result.findings.values():
        assert finding.witness.input_id >= FUZZ_ID_BASE
    assert len(executed) == result.candidates
    for test_input in executed:
        assert test_input.input_id >= FUZZ_ID_BASE


def test_metrics_land_in_their_own_fuzz_registry():
    metrics = CrossTestMetrics(source="fuzz")
    assert metrics.registry.system == "crosstest.fuzz"
    result = run_fuzz(
        FuzzConfig(seed=3, budget=8, batch=8, shrink=False),
        Baseline.empty(),
        metrics=metrics,
    )
    assert int(metrics.trials_total.value) == result.trials_run
    # the §8 matrix registry name is untouched by default
    assert CrossTestMetrics().registry.system == "crosstest"


def test_spans_are_tagged_with_fuzz_source():
    result = _campaign(jobs=1, budget=8, batch=8)
    finding = result.findings[min(result.findings)]
    spans = trace_witness(result.config, finding)
    assert spans
    assert all(span.attributes.get("source") == "fuzz" for span in spans)


def test_committed_baseline_makes_smoke_prefix_all_known():
    # the canonical smoke campaign (seed 11, batch 16) is a prefix of
    # the baseline-generation campaign, so nothing it finds is novel
    baseline = Baseline.load(default_baseline_path())
    config = FuzzConfig(seed=11, budget=16, batch=16, jobs=1)
    result = run_fuzz(config, baseline)
    assert result.findings
    assert result.novel_findings == []


def test_novelty_follows_the_baseline():
    empty_run = _campaign(jobs=1, budget=8, batch=8)
    assert empty_run.findings
    assert all(f.novel for f in empty_run.findings.values())
    knowing = Baseline.empty()
    for finding in empty_run.findings.values():
        knowing.add(finding.fingerprint)
    rerun = run_fuzz(
        FuzzConfig(seed=11, budget=8, batch=8, shrink=False), knowing
    )
    assert rerun.novel_findings == []
    assert rerun.known_count == len(rerun.findings)


def test_fuzz_section_summarizes_the_campaign():
    result = _campaign(jobs=1, budget=8, batch=8)
    payload = result.to_json()
    assert payload["seed"] == 11
    assert payload["candidates"] == 8
    assert payload["distinct_fingerprints"] == len(result.findings)
    lines = result.summary_lines()
    assert lines[0].startswith("fuzz: seed=11")
    assert any("fingerprints:" in line for line in lines)


def test_fuzz_result_renders_novel_findings():
    witness = TestInput(FUZZ_ID_BASE, "smallint", "7S", 7, True)
    shrunk = TestInput(FUZZ_ID_BASE, "smallint", "0S", 0, True)
    findings = {}
    for fmt in ("orc", "avro"):
        fingerprint = Fingerprint(
            "difft", "spark_hive", fmt, ("w_sql_r_sql", "w_df_r_df"),
            "smallint", "e",
        )
        findings[fingerprint.key] = FuzzFinding(
            fingerprint, witness, {}, round_index=1, novel=True,
            shrunk=shrunk,
        )
    result = FuzzResult(
        config=FuzzConfig(seed=2, budget=16),
        rounds=2,
        candidates=16,
        trials_run=384,
        coverage=CoverageMap(),
        findings=findings,
        rediscovered=(1, 13),
    )
    payload = result.to_json()
    assert payload["rediscovered"] == [1, 13]
    assert [f["shrunk"]["sql_literal"] for f in payload["novel"]] == [
        "0S", "0S"
    ]
    lines = result.summary_lines()
    # the two formats' variants fold into one mechanism line
    assert "  NOVEL difft smallint [e] x2" in lines
    assert "    repro: smallint = 0S" in lines
    assert any("#1, #13" in line for line in lines)


def test_config_rejects_nonpositive_budget_and_batch():
    with pytest.raises(ValueError):
        FuzzConfig(budget=0)
    with pytest.raises(ValueError):
        FuzzConfig(batch=0)
