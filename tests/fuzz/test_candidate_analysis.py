"""Rounds analyze each candidate in the worker that ran it.

A round dispatches one executor task per candidate and ships home only
outcome columns, coverage features and fingerprint hits. These tests
pin that this gives exactly what the parent-side derivation over every
trial and its decoded spans gave, that no span blob travels on a
round, and that ``--out-dir`` still writes a witness's complete trace.
"""

import asyncio
import json

import pytest

from repro.campaign import CampaignService
from repro.cli import main
from repro.crosstest import executor
from repro.crosstest.classify import found_discrepancies
from repro.crosstest.executor import WorkerPoolHandle, execute
from repro.crosstest.fingerprint import conf_label, run_fingerprints
from repro.crosstest.oracles import all_failures
from repro.crosstest.plans import ALL_PLANS, FORMATS
from repro.fuzz import FUZZ_ID_BASE, Baseline, FuzzConfig
from repro.fuzz.coverage import trial_features
from repro.fuzz.generators import gen_conf
from repro.fuzz.scheduler import (
    CampaignState,
    FuzzFinding,
    RoundOutcome,
    _build_batch,
    run_round,
)
from repro.tracing import read_jsonl

ROUNDS = 4
BATCH = 8


def _reference_round(state: CampaignState, baseline: Baseline) -> RoundOutcome:
    """One round the way the parent derived it from every trial: the full
    trial list in plan → format → input order, coverage features over
    decoded spans, and the oracles, fingerprints and catalog matches
    over all trials of the batch at once."""
    config = state.config
    round_index = state.round_index
    batch = _build_batch(
        config,
        round_index,
        config.batch,
        FUZZ_ID_BASE + state.candidates,
        state.seed_pool,
    )
    slots = {
        test_input.input_id: slot for slot, test_input in enumerate(batch)
    }
    conf_overrides = gen_conf(config.seed, round_index)
    exec_conf = dict(conf_overrides)
    exec_conf["repro.plan.cache.enabled"] = "false"
    trace_sink = {}
    trials = execute(
        config.plans, config.formats, batch, exec_conf, jobs=1,
        trace_sink=trace_sink,
    )
    state.trials_run += len(trials)

    promoted = set()
    new_features = set()
    for index, trial in enumerate(trials):
        novel = state.coverage.observe(
            trial_features(trial, trace_sink.get(index, ()))
        )
        if novel:
            promoted.add(trial.test_input.input_id)
            new_features.update(novel)
    promoted_count = 0
    for test_input in batch:
        if test_input.input_id in promoted and (
            test_input.input_id not in state.pool_ids
        ):
            state.seed_pool.append(test_input)
            state.pool_ids.add(test_input.input_id)
            state.promoted.append(
                (round_index, slots[test_input.input_id], test_input.input_id)
            )
            promoted_count += 1

    failures = all_failures(trials)
    by_id = {test_input.input_id: test_input for test_input in batch}
    hits = run_fingerprints(trials, failures, conf_label(conf_overrides))
    new_keys = []
    for key, hit in hits.items():
        finding = state.findings.get(key)
        if finding is None:
            state.findings[key] = FuzzFinding(
                fingerprint=hit.fingerprint,
                witness=by_id[hit.witness_input_id],
                conf_overrides=dict(conf_overrides),
                round_index=round_index,
                failure_count=len(hit.failures),
                novel=key not in baseline,
            )
            state.witness_provenance[key] = (
                round_index,
                slots[hit.witness_input_id],
                hit.witness_input_id,
            )
            new_keys.append(key)
        else:
            finding.failure_count += len(hit.failures)
    fresh_numbers = sorted(
        number
        for number in found_discrepancies(trials)
        if number and number not in state.rediscovered
    )
    state.rediscovered.update(fresh_numbers)
    state.candidates += config.batch
    state.round_index += 1
    return RoundOutcome(
        round_index=round_index,
        candidates=config.batch,
        trials=len(trials),
        witnessed=tuple(sorted(hits)),
        new_keys=tuple(sorted(new_keys)),
        novel_keys=tuple(
            sorted(key for key in new_keys if state.findings[key].novel)
        ),
        promoted=promoted_count,
        rediscovered=tuple(fresh_numbers),
        coverage_features=len(state.coverage),
        new_features=tuple(sorted(new_features)),
    )


def _record_observations(state: CampaignState) -> list:
    """Every feature set ``state.coverage`` observes from now on, in
    order: first-seen credit decides promotion, so the order is part of
    what a round must reproduce even where the promotions coincide."""
    observed = []
    observe = state.coverage.observe

    def record(features):
        observed.append(frozenset(features))
        return observe(features)

    state.coverage.observe = record
    return observed


def _baseline() -> Baseline:
    # a couple of known keys, so both novel and known findings occur
    probe = CampaignState.fresh(FuzzConfig(seed=2, batch=4, shrink=False))
    run_round(probe, Baseline.empty())
    known = Baseline.empty()
    for key in sorted(probe.findings)[::2]:
        known.add(probe.findings[key].fingerprint)
    return known


@pytest.mark.parametrize("seed", [1, 11, 1337])
def test_rounds_match_the_parent_side_derivation(seed):
    baseline = _baseline()
    reference = CampaignState.fresh(
        FuzzConfig(seed=seed, batch=BATCH, shrink=False)
    )
    expected_observed = _record_observations(reference)
    expected = [_reference_round(reference, baseline) for _ in range(ROUNDS)]
    assert any(outcome.promoted for outcome in expected[1:])
    assert any(outcome.new_keys for outcome in expected)
    for jobs, pool in ((1, "auto"), (2, "thread"), (2, "process")):
        state = CampaignState.fresh(
            FuzzConfig(seed=seed, batch=BATCH, jobs=jobs, pool=pool,
                       shrink=False)
        )
        observed = _record_observations(state)
        with WorkerPoolHandle(jobs, pool) as handle:
            outcomes = [
                run_round(
                    state, baseline,
                    pool_handle=handle if jobs > 1 else None,
                )
                for _ in range(ROUNDS)
            ]
        assert outcomes == expected, (jobs, pool)
        assert state.to_json() == reference.to_json(), (jobs, pool)
        assert observed == expected_observed, (jobs, pool)


@pytest.fixture
def no_span_blobs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a span blob was encoded or decoded")

    monkeypatch.setattr(executor, "encode_span_batches", refuse)
    monkeypatch.setattr(executor, "decode_span_batches", refuse)


@pytest.mark.parametrize("jobs,pool", [(1, "auto"), (2, "thread")])
def test_a_round_ships_no_span_blob(no_span_blobs, jobs, pool):
    state = CampaignState.fresh(
        FuzzConfig(seed=11, batch=BATCH, jobs=jobs, pool=pool, shrink=False)
    )
    outcome = run_round(state, Baseline.empty())
    assert outcome.trials == BATCH * len(ALL_PLANS) * len(FORMATS)
    assert outcome.coverage_features and outcome.witnessed


def test_a_campaign_ships_no_span_blob(no_span_blobs, tmp_path):
    service = CampaignService(
        FuzzConfig(seed=11, batch=BATCH, jobs=1, shrink=False),
        Baseline.empty(),
        checkpoint_path=str(tmp_path / "ckpt.json"),
        fingerprints_path=str(tmp_path / "fp.jsonl"),
        ledger_path=str(tmp_path / "ledger.jsonl"),
        max_batches=2,
    )
    summary = asyncio.run(service.run())
    assert summary.batches_run == 2
    assert summary.fingerprints


def test_out_dir_trace_holds_every_trial_of_the_witness(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code = main(
        [
            "fuzz", "--seed", "11", "--budget", str(BATCH), "--batch",
            str(BATCH), "--quiet", "--baseline", "none", "--no-shrink",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 4
    finding_dirs = sorted((out_dir / "findings").iterdir())
    assert finding_dirs
    for finding_dir in finding_dirs:
        repro = json.loads((finding_dir / "repro.json").read_text())
        witness = repro["witness"]["input_id"]
        spans = read_jsonl(str(finding_dir / "trace.jsonl"))
        assert {span.trace_id for span in spans} == {
            f"{plan.name}/{fmt}/{witness}"
            for plan in ALL_PLANS
            for fmt in FORMATS
        }
        assert all(span.attributes.get("source") == "fuzz" for span in spans)
