"""Shared fixture: a checkpointed campaign with one seeded novelty.

Built once per session — one seed-3 batch through the real scheduler
is the cheapest campaign that witnesses fingerprints, and holding the
last key out of the baseline turns it into the exact artifact set a
nightly exit-4 leaves behind: checkpoint + fingerprint JSONL + a
baseline that doesn't know one key.
"""

import json

import pytest

from repro.campaign.checkpoint import (
    Checkpoint,
    CheckpointJournal,
    save_checkpoint,
)
from repro.fuzz.dedup import Baseline
from repro.fuzz.scheduler import CampaignState, FuzzConfig, run_round

SEED = 3
BATCH = 8


@pytest.fixture(scope="session")
def seeded_campaign(tmp_path_factory):
    """A one-batch campaign whose last fingerprint key is novel.

    Returns a dict: ``checkpoint`` / ``fingerprints`` / ``baseline``
    paths, the ``held_out`` key, and ``all_keys``.
    """
    workdir = tmp_path_factory.mktemp("seeded-campaign")

    # learning pass: which keys does this batch witness?
    config = FuzzConfig(seed=SEED, budget=BATCH, batch=BATCH, shrink=False)
    probe = CampaignState.fresh(config)
    run_round(probe, Baseline.empty())
    all_keys = sorted(probe.findings)
    assert all_keys, "seed-3 batch must witness fingerprints"
    held_out = all_keys[-1]

    pruned = Baseline(
        {
            key: finding.fingerprint
            for key, finding in probe.findings.items()
            if key != held_out
        }
    )
    baseline_path = str(workdir / "pruned-baseline.json")
    pruned.save(baseline_path)

    # the campaign a nightly would have run: same batch, novel key seen
    state = CampaignState.fresh(config)
    outcome = run_round(state, pruned)
    assert outcome.novel_keys == (held_out,)

    # written the way the campaign service commits a batch: a header,
    # then the batch's delta record
    checkpoint_path = str(workdir / "campaign.ckpt.json")
    journal = CheckpointJournal.create(checkpoint_path, config.signature())
    save_checkpoint(
        journal,
        Checkpoint(state=state.delta_json(outcome), novel_seen=True),
        state.to_json,
    )

    fingerprints_path = str(workdir / "campaign.fp.jsonl")
    with open(fingerprints_path, "w", encoding="utf-8") as handle:
        for key in sorted(state.findings):
            finding = state.findings[key]
            handle.write(
                json.dumps(
                    {
                        "key": key,
                        "fingerprint": finding.fingerprint.to_json(),
                        "novel": finding.novel,
                        "failures": finding.failure_count,
                        "batch": finding.round_index,
                    },
                    sort_keys=True,
                )
                + "\n"
            )

    return {
        "checkpoint": checkpoint_path,
        "fingerprints": fingerprints_path,
        "baseline": baseline_path,
        "held_out": held_out,
        "all_keys": all_keys,
    }
