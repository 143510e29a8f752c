"""Tests for the always-on campaign service.

The load-bearing guarantee — the acceptance criterion of the campaign
PR: a campaign killed mid-run and resumed from its checkpoint emits
**byte-identical** fingerprint JSONL and **canonically identical**
ledger records to an uninterrupted run of the same seed, at any
``--jobs``/pool setting. The grid here interrupts after batch 1 and
resumes under every worker configuration; the hard-kill tests tear the
output files the way SIGKILL would and check the truncate-on-resume
protocol heals them.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import CampaignService, CheckpointError, load_checkpoint
from repro.fuzz import Baseline, FuzzConfig
from repro.obs import canonical_record, read_ledger

SETTINGS = [
    (1, "thread"),
    (2, "thread"),
    (4, "thread"),
    (2, "process"),
    (4, "process"),
]

FIXED_CLOCK = lambda: 1700000000.0  # noqa: E731

SEED = 3
BATCH = 8
TOTAL_BATCHES = 3


def _config(jobs=1, pool="auto"):
    return FuzzConfig(
        seed=SEED,
        budget=BATCH,
        batch=BATCH,
        jobs=jobs,
        pool=pool,
        shrink=False,
    )


def _paths(directory, tag):
    return {
        "checkpoint_path": str(directory / f"{tag}.ckpt.json"),
        "fingerprints_path": str(directory / f"{tag}.fp.jsonl"),
        "ledger_path": str(directory / f"{tag}.ledger.jsonl"),
    }


def _run(paths, *, jobs=1, pool="auto", max_batches=None, duration=None):
    service = CampaignService(
        _config(jobs, pool),
        Baseline.empty(),
        max_batches=max_batches,
        duration=duration,
        clock=FIXED_CLOCK,
        **paths,
    )
    return asyncio.run(service.run())


def _fingerprint_bytes(paths):
    with open(paths["fingerprints_path"], "rb") as handle:
        return handle.read()


def _canonical_ledger(paths):
    return [
        canonical_record(record)
        for record in read_ledger(paths["ledger_path"])
    ]


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """One clean 3-batch run: the oracle every resumed run must match."""
    paths = _paths(tmp_path_factory.mktemp("baseline"), "clean")
    summary = _run(paths, jobs=1, max_batches=TOTAL_BATCHES)
    assert summary.batches_total == TOTAL_BATCHES
    return {
        "fingerprints": _fingerprint_bytes(paths),
        "ledger": _canonical_ledger(paths),
        "summary": summary,
    }


class TestKillResumeByteIdentity:
    @pytest.mark.parametrize("jobs,pool", SETTINGS)
    def test_interrupt_after_one_batch_then_resume(
        self, tmp_path, uninterrupted, jobs, pool
    ):
        paths = _paths(tmp_path, "resumed")
        first = _run(paths, jobs=jobs, pool=pool, max_batches=1)
        assert first.batches_run == 1
        assert not first.resumed
        second = _run(
            paths, jobs=jobs, pool=pool, max_batches=TOTAL_BATCHES
        )
        assert second.resumed
        # --max-batches counts global batches: 1 done + 2 remaining
        assert second.batches_run == TOTAL_BATCHES - 1
        assert second.batches_total == TOTAL_BATCHES
        assert _fingerprint_bytes(paths) == uninterrupted["fingerprints"]
        assert _canonical_ledger(paths) == uninterrupted["ledger"]

    def test_resume_at_different_jobs_than_the_interrupt(
        self, tmp_path, uninterrupted
    ):
        paths = _paths(tmp_path, "mixed")
        _run(paths, jobs=1, max_batches=1)
        _run(paths, jobs=4, pool="process", max_batches=TOTAL_BATCHES)
        assert _fingerprint_bytes(paths) == uninterrupted["fingerprints"]
        assert _canonical_ledger(paths) == uninterrupted["ledger"]


class TestHardKillRecovery:
    def test_torn_appends_are_truncated_and_rewritten(
        self, tmp_path, uninterrupted
    ):
        # simulate SIGKILL between the appends and the checkpoint: the
        # files carry bytes the checkpoint never committed
        paths = _paths(tmp_path, "torn")
        _run(paths, max_batches=1)
        with open(paths["fingerprints_path"], "ab") as handle:
            handle.write(b'{"key": "torn-and-uncomm')
        with open(paths["ledger_path"], "ab") as handle:
            handle.write(b'{"schema_version": 1, "kind": "campa')
        _run(paths, max_batches=TOTAL_BATCHES)
        assert _fingerprint_bytes(paths) == uninterrupted["fingerprints"]
        assert _canonical_ledger(paths) == uninterrupted["ledger"]

    def test_output_shorter_than_checkpoint_refuses_resume(self, tmp_path):
        paths = _paths(tmp_path, "lost")
        _run(paths, max_batches=1)
        with open(paths["fingerprints_path"], "wb"):
            pass  # the committed fingerprints vanished
        with pytest.raises(CheckpointError, match="refusing to resume"):
            _run(paths, max_batches=TOTAL_BATCHES)

    def test_config_mismatch_refuses_resume(self, tmp_path):
        paths = _paths(tmp_path, "drift")
        _run(paths, max_batches=1)
        service = CampaignService(
            FuzzConfig(seed=SEED + 1, budget=BATCH, batch=BATCH, shrink=False),
            Baseline.empty(),
            max_batches=TOTAL_BATCHES,
            **paths,
        )
        with pytest.raises(CheckpointError, match="different campaign"):
            asyncio.run(service.run())

    def test_header_lanes_switch_does_not_block_resume(
        self, tmp_path, uninterrupted
    ):
        # earlier builds signed a "lanes" switch into the header's
        # config; it never changed a (traced) campaign batch
        paths = _paths(tmp_path, "lanes")
        _run(paths, max_batches=1)
        with open(paths["checkpoint_path"], "rb") as handle:
            header, records = handle.read().split(b"\n", 1)
        payload = json.loads(header)
        payload["config"]["lanes"] = False
        with open(paths["checkpoint_path"], "wb") as handle:
            handle.write(json.dumps(payload).encode("utf-8") + b"\n")
            handle.write(records)
        _run(paths, max_batches=TOTAL_BATCHES)
        assert _fingerprint_bytes(paths) == uninterrupted["fingerprints"]
        assert _canonical_ledger(paths) == uninterrupted["ledger"]


class TestBoundsAndExitContract:
    def test_max_batches_already_reached_runs_nothing(self, tmp_path):
        paths = _paths(tmp_path, "done")
        _run(paths, max_batches=1)
        again = _run(paths, max_batches=1)
        assert again.resumed
        assert again.batches_run == 0
        assert again.batches_total == 1

    def test_novel_seen_survives_resume(self, tmp_path):
        # exit 4 must not be forgotten just because the novel finding
        # landed before the kill (empty baseline → everything is novel)
        paths = _paths(tmp_path, "novel")
        first = _run(paths, max_batches=1)
        assert first.novel_seen
        assert first.exit_code == 4
        again = _run(paths, max_batches=1)
        assert again.batches_run == 0
        assert again.novel_seen
        assert again.exit_code == 4

    def test_duration_bound_stops_between_batches(self, tmp_path):
        paths = _paths(tmp_path, "timed")
        summary = _run(paths, max_batches=TOTAL_BATCHES, duration=1e-9)
        assert summary.batches_total == 0
        assert summary.stop_reason == "duration"

    def test_checkpoint_matches_summary(self, tmp_path):
        paths = _paths(tmp_path, "ckpt")
        summary = _run(paths, max_batches=2)
        checkpoint = load_checkpoint(paths["checkpoint_path"])
        assert checkpoint.state["round_index"] == summary.batches_total == 2
        assert checkpoint.novel_seen == summary.novel_seen
        assert checkpoint.fingerprints_bytes == os.path.getsize(
            paths["fingerprints_path"]
        )
        assert checkpoint.ledger_bytes == os.path.getsize(
            paths["ledger_path"]
        )

    def test_fingerprint_lines_are_per_batch_deltas(self, tmp_path):
        paths = _paths(tmp_path, "delta")
        _run(paths, max_batches=2)
        batches = set()
        with open(paths["fingerprints_path"], encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                assert set(record) == {
                    "key",
                    "fingerprint",
                    "novel",
                    "failures",
                    "batch",
                }
                batches.add(record["batch"])
        assert batches == {0, 1}


class TestSignalDrain:
    @pytest.mark.skipif(
        not hasattr(signal, "SIGTERM") or os.name == "nt",
        reason="unix signal semantics",
    )
    def test_sigterm_drains_commits_and_exits_cleanly(self, tmp_path):
        # a real process, a real signal: the in-flight batch must
        # commit and the checkpoint must be resumable afterwards
        checkpoint = tmp_path / "ckpt.json"
        fingerprints = tmp_path / "fp.jsonl"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "campaign",
                "--seed",
                str(SEED),
                "--batch",
                str(BATCH),
                "--baseline",
                "none",
                "--checkpoint",
                str(checkpoint),
                "--fingerprints",
                str(fingerprints),
                "--quiet",
            ],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd="/root/repo",
        )
        try:
            deadline = time.monotonic() + 120
            while not checkpoint.exists():
                assert proc.poll() is None, "campaign died before batch 1"
                assert time.monotonic() < deadline, "no checkpoint in 120s"
                time.sleep(0.2)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # empty baseline → every fingerprint is novel → exit 4, and the
        # drained batch must have left a loadable, consistent checkpoint
        assert rc == 4
        loaded = load_checkpoint(str(checkpoint))
        assert loaded.state["round_index"] >= 1
        assert loaded.fingerprints_bytes == os.path.getsize(fingerprints)
