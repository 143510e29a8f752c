"""Crash tests for the campaign's own checkpoint journal.

Each test damages the checkpoint the way a crash (or a disk) would —
a record cut at any byte, a rewrite killed before its rename, a kill
between batch 0's appends and its commit, a corrupt committed record —
and checks that resume either heals it into a run byte-identical to an
uninterrupted one or refuses it with :class:`CheckpointError` (exit 2
from ``repro campaign``). A small batch keeps the journal's records
short enough to cut at every byte.
"""

import asyncio
import json
import os

import pytest

from repro.campaign import (
    CampaignService,
    CheckpointError,
    CheckpointJournal,
    load_checkpoint,
)
from repro.cli import main
from repro.fuzz import Baseline, FuzzConfig
from repro.obs import canonical_record, read_ledger

SEED = 3
BATCH = 2
TOTAL_BATCHES = 3


def _paths(directory, tag):
    return {
        "checkpoint_path": str(directory / f"{tag}.ckpt.json"),
        "fingerprints_path": str(directory / f"{tag}.fp.jsonl"),
        "ledger_path": str(directory / f"{tag}.ledger.jsonl"),
    }


def _service(paths, max_batches, progress=None):
    return CampaignService(
        FuzzConfig(seed=SEED, budget=BATCH, batch=BATCH, shrink=False),
        Baseline.empty(),
        max_batches=max_batches,
        progress=progress,
        clock=lambda: 1700000000.0,
        **paths,
    )


def _run(paths, max_batches, progress=None):
    service = _service(paths, max_batches, progress)
    return service, asyncio.run(service.run())


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _write(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


def _canonical_ledger(paths):
    return [
        canonical_record(record)
        for record in read_ledger(paths["ledger_path"])
    ]


def _assert_matches(paths, clean):
    assert _read(paths["fingerprints_path"]) == clean["fingerprints"]
    assert _canonical_ledger(paths) == clean["ledger"]
    assert load_checkpoint(paths["checkpoint_path"]).state == clean["state"]


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """An uninterrupted run, and the files of one stopped after 2 batches."""
    directory = tmp_path_factory.mktemp("clean")
    paths = _paths(directory, "clean")
    _run(paths, TOTAL_BATCHES)
    stopped = _paths(directory, "stopped")
    _run(stopped, TOTAL_BATCHES - 1)
    return {
        "fingerprints": _read(paths["fingerprints_path"]),
        "ledger": _canonical_ledger(paths),
        "state": load_checkpoint(paths["checkpoint_path"]).state,
        "stopped": {key: _read(path) for key, path in stopped.items()},
    }


def _restore(paths, files):
    for key, data in files.items():
        _write(paths[key], data)


class TestTornRecord:
    def test_cut_at_every_byte_of_the_last_record_then_resume(
        self, tmp_path, clean
    ):
        paths = _paths(tmp_path, "cut")
        stopped = clean["stopped"]
        journal = stopped["checkpoint_path"]
        last = journal.rfind(b"\n", 0, len(journal) - 1) + 1
        assert journal.count(b"\n") >= 3, "want a delta record to cut"
        # every cut leaves the same committed prefix: batch 0
        _restore(paths, stopped)
        _write(paths["checkpoint_path"], journal[:last])
        _run(paths, 1)
        healed = {key: _read(path) for key, path in paths.items()}
        assert healed["checkpoint_path"] == journal[:last]
        for cut in range(last, len(journal)):
            _restore(paths, stopped)
            _write(paths["checkpoint_path"], journal[:cut])
            _, summary = _run(paths, 1)
            assert summary.resumed and summary.batches_run == 0, cut
            for key, path in paths.items():
                assert _read(path) == healed[key], (cut, key)
        # ...and resuming from it re-runs batch 1 to the uninterrupted
        # bytes; the cut that keeps everything but the newline included
        for cut in (last, last + 1, (last + len(journal)) // 2,
                    len(journal) - 1):
            _restore(paths, stopped)
            _write(paths["checkpoint_path"], journal[:cut])
            _, summary = _run(paths, TOTAL_BATCHES)
            assert summary.batches_run == TOTAL_BATCHES - 1, cut
            _assert_matches(paths, clean)

    def test_kill_before_batch_zero_commits_does_not_duplicate_it(
        self, tmp_path, clean
    ):
        # the ledger already holds another run's record; batch 0 is
        # appended to it and to the fingerprints, then the process dies
        # before batch 0's commit record: only the header survives
        paths = _paths(tmp_path, "early")
        prior = json.dumps(
            {"kind": "fuzz", "results": {}, "run": {}, "ts": 1.0}
        ) + "\n"
        _write(paths["ledger_path"], prior.encode())
        _run(paths, 1)
        header = _read(paths["checkpoint_path"]).split(b"\n")[0] + b"\n"
        assert json.loads(header)["offsets"]["ledger_bytes"] == len(prior)
        _write(paths["checkpoint_path"], header)
        _run(paths, TOTAL_BATCHES)
        records = read_ledger(paths["ledger_path"])
        assert [r["run"].get("batch_index") for r in records] == [
            None, 0, 1, 2
        ]
        assert _read(paths["fingerprints_path"]) == clean["fingerprints"]
        assert [canonical_record(r) for r in records[1:]] == clean["ledger"]

    def test_tmp_left_by_a_crashed_rewrite_is_ignored(self, tmp_path, clean):
        paths = _paths(tmp_path, "tmp")
        _restore(paths, clean["stopped"])
        tmp = paths["checkpoint_path"] + ".tmp"
        _write(tmp, b'{"schema_version": 2, "kind": "campaign-checkpo')
        loaded = load_checkpoint(paths["checkpoint_path"])
        assert loaded.state["round_index"] == TOTAL_BATCHES - 1
        _run(paths, TOTAL_BATCHES)
        _assert_matches(paths, clean)


class TestCorruption:
    def test_corrupt_earlier_record_exits_two(self, tmp_path, clean, capsys):
        stopped = clean["stopped"]
        lines = stopped["checkpoint_path"].split(b"\n")
        assert len(lines) >= 4  # header, 2 records, the final newline
        lines[1] = lines[1][: len(lines[1]) // 2]
        paths = _paths(tmp_path, "corrupt")
        _restore(paths, stopped)
        _write(paths["checkpoint_path"], b"\n".join(lines))
        with pytest.raises(CheckpointError, match=":2: bad commit record"):
            load_checkpoint(paths["checkpoint_path"])
        fingerprints = _read(paths["fingerprints_path"])
        assert main([
            "campaign", "--seed", str(SEED), "--batch", str(BATCH),
            "--baseline", "none", "--quiet",
            "--max-batches", str(TOTAL_BATCHES),
            "--checkpoint", paths["checkpoint_path"],
            "--fingerprints", paths["fingerprints_path"],
            "--ledger", paths["ledger_path"],
        ]) == 2
        assert "checkpoint error" in capsys.readouterr().err
        # refused before touching anything
        assert _read(paths["fingerprints_path"]) == fingerprints


class TestCompaction:
    def test_fold_equals_state_and_size_stays_bounded(
        self, tmp_path, monkeypatch
    ):
        paths = _paths(tmp_path, "long")
        path = paths["checkpoint_path"]
        sizes = {"rewrites": 0}
        rewrite = CheckpointJournal.rewrite
        append = CheckpointJournal.append

        def counted_rewrite(journal, checkpoint):
            rewrite(journal, checkpoint)
            sizes["rewrites"] += 1
            sizes["base"] = os.path.getsize(path)
            assert not os.path.exists(path + ".tmp")

        def bounded_append(journal, commit):
            before = os.path.getsize(path)
            # the first append lands on the bare header
            sizes.setdefault("base", before)
            append(journal, commit)
            record = os.path.getsize(path) - before
            assert before <= 2 * sizes["base"]
            assert os.path.getsize(path) <= 2 * sizes["base"] + record

        def check(outcome):
            assert load_checkpoint(path).state == service.state.to_json(), (
                outcome.round_index
            )
            assert os.path.getsize(path) <= 2 * sizes["base"]

        monkeypatch.setattr(CheckpointJournal, "rewrite", counted_rewrite)
        monkeypatch.setattr(CheckpointJournal, "append", bounded_append)
        service = _service(paths, 12, check)
        asyncio.run(service.run())
        assert service.state.round_index == 12
        assert sizes["rewrites"] >= 2
        # and a resume appends to the compacted journal consistently
        monkeypatch.undo()
        _, summary = _run(paths, 14)
        assert summary.batches_run == 2
        clean_paths = _paths(tmp_path, "straight")
        _run(clean_paths, 14)
        assert _read(paths["fingerprints_path"]) == _read(
            clean_paths["fingerprints_path"]
        )
        assert load_checkpoint(path).state == load_checkpoint(
            clean_paths["checkpoint_path"]
        ).state
