"""Tests for the campaign checkpoint journal: format, folding, atomicity."""

import json
import os

import pytest

from repro.campaign import (
    CHECKPOINT_SCHEMA_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointJournal,
    load_checkpoint,
    save_checkpoint,
)

CONFIG = {"seed": 11, "batch": 16}

#: two batches' deltas, in CampaignState.delta_json's shape
DELTAS = [
    {
        "candidates": 16,
        "round_index": 1,
        "trials_run": 384,
        "coverage": ["b"],
        "promoted": [[0, 3, 1000003]],
        "findings": [
            {"key": "k1", "novel": True, "failures": 2, "round": 0,
             "witness": [0, 3, 1000003], "fingerprint": {}},
        ],
        "failures": {},
        "rediscovered": [4],
    },
    {
        "candidates": 32,
        "round_index": 2,
        "trials_run": 768,
        "coverage": ["a"],
        "promoted": [[1, 0, 1000016]],
        "findings": [
            {"key": "k0", "novel": False, "failures": 1, "round": 1,
             "witness": [1, 0, 1000016], "fingerprint": {}},
        ],
        "failures": {"k1": 5},
        "rediscovered": [2],
    },
]

#: what the journal must fold DELTAS to (CampaignState.to_json's shape)
STATE = {
    "config": CONFIG,
    "candidates": 32,
    "round_index": 2,
    "trials_run": 768,
    "coverage": ["a", "b"],
    "promoted": [[0, 3, 1000003], [1, 0, 1000016]],
    "findings": [
        {"key": "k0", "novel": False, "failures": 1, "round": 1,
         "witness": [1, 0, 1000016], "fingerprint": {}},
        {"key": "k1", "novel": True, "failures": 5, "round": 0,
         "witness": [0, 3, 1000003], "fingerprint": {}},
    ],
    "rediscovered": [2, 4],
}


def _never():
    raise AssertionError("no rewrite expected")


def _journal(path, deltas=DELTAS):
    """A header plus one appended commit record per delta."""
    journal = CheckpointJournal.create(
        path, CONFIG, ledger_bytes=7, env={"ts": 0.5}
    )
    # pin compaction off: these tests read the records as appended
    journal.compact_size = 10**9
    for index, delta in enumerate(deltas):
        save_checkpoint(
            journal,
            Checkpoint(
                state=delta,
                ledger_bytes=100 * (index + 1),
                fingerprints_bytes=10 * (index + 1),
                novel_seen=True,
                env={"ts": float(index + 1)},
            ),
            _never,
        )
    return journal


def _lines(path):
    with open(path, "rb") as handle:
        return handle.read().split(b"\n")[:-1]


def _write_lines(path, lines):
    with open(path, "wb") as handle:
        handle.write(b"".join(line + b"\n" for line in lines))


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        _journal(path)
        loaded = load_checkpoint(path)
        assert loaded.state == STATE
        assert loaded.ledger_bytes == 200
        assert loaded.fingerprints_bytes == 20
        assert loaded.novel_seen is True
        assert loaded.env == {"ts": 2.0}

    def test_header_alone_is_a_fresh_campaign_at_its_start_offsets(
        self, tmp_path
    ):
        path = str(tmp_path / "ckpt.json")
        _journal(path, deltas=[])
        loaded = load_checkpoint(path)
        assert loaded.state == {
            "config": CONFIG,
            "candidates": 0,
            "round_index": 0,
            "trials_run": 0,
            "coverage": [],
            "promoted": [],
            "findings": [],
            "rediscovered": [],
        }
        assert loaded.ledger_bytes == 7
        assert loaded.fingerprints_bytes == 0
        assert loaded.novel_seen is False
        assert loaded.env == {"ts": 0.5}

    def test_write_is_atomic(self, tmp_path):
        # a rewrite goes through a tmp file that never survives, and
        # replaces the journal with the header plus one full record
        path = str(tmp_path / "ckpt.json")
        journal = _journal(path)
        before = os.stat(path).st_ino
        journal.rewrite(Checkpoint(state=STATE, fingerprints_bytes=99))
        assert not os.path.exists(path + ".tmp")
        assert os.stat(path).st_ino != before
        assert len(_lines(path)) == 2
        loaded = load_checkpoint(path)
        assert loaded.state == STATE
        assert loaded.fingerprints_bytes == 99
        assert journal.size == journal.compact_size == os.path.getsize(path)

    def test_append_past_twice_the_rewritten_size_compacts(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        journal = CheckpointJournal.create(path, CONFIG)
        header_size = os.path.getsize(path)
        assert journal.size == journal.compact_size == header_size
        # the first record more than doubles a bare header: rewritten
        save_checkpoint(
            journal, Checkpoint(state=DELTAS[0]), lambda: STATE
        )
        assert len(_lines(path)) == 2
        assert load_checkpoint(path).state == STATE
        assert journal.compact_size == os.path.getsize(path)
        # a small record stays an append
        save_checkpoint(
            journal,
            Checkpoint(state=dict(DELTAS[1], coverage=[], findings=[],
                                  promoted=[], failures={},
                                  rediscovered=[])),
            _never,
        )
        assert len(_lines(path)) == 3
        assert journal.size == os.path.getsize(path)

    def test_schema_version_stamped(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        _journal(path)
        header, *records = (json.loads(line) for line in _lines(path))
        assert header["schema_version"] == CHECKPOINT_SCHEMA_VERSION == 2
        assert header["kind"] == "campaign-checkpoint"
        assert header["config"] == CONFIG
        assert header["offsets"] == {
            "ledger_bytes": 7,
            "fingerprints_bytes": 0,
        }
        assert [record["kind"] for record in records] == ["commit"] * 2
        # a commit record carries its batch's delta, not the snapshot
        assert records[1]["state"] == DELTAS[1]


class TestTornTail:
    def test_torn_last_record_is_skipped_at_every_cut(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        _journal(path)
        with open(path, "rb") as handle:
            data = handle.read()
        last = data.rfind(b"\n", 0, len(data) - 1) + 1
        committed = load_checkpoint(path)
        _journal(str(tmp_path / "one.json"), deltas=DELTAS[:1])
        previous = load_checkpoint(str(tmp_path / "one.json"))
        for cut in range(last, len(data)):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            assert load_checkpoint(path) == previous, cut
            journal, _ = CheckpointJournal.open(path)
            assert journal.size == last, cut
        with open(path, "wb") as handle:
            handle.write(data)
        assert load_checkpoint(path) == committed

    def test_bad_earlier_record_raises(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        _journal(path)
        lines = _lines(path)
        _write_lines(path, [lines[0], lines[1][:-5], lines[2]])
        with pytest.raises(CheckpointError, match=":2: bad commit record"):
            load_checkpoint(path)

    def test_bad_complete_last_record_raises(self, tmp_path):
        # a newline commits a record: one that ends in a newline and
        # does not parse is damage, not a torn append
        path = str(tmp_path / "ckpt.json")
        _journal(path)
        lines = _lines(path)
        _write_lines(path, [*lines[:2], b'{"kind": "commit"}'])
        with pytest.raises(CheckpointError, match=":3: bad commit record"):
            load_checkpoint(path)

    def test_unknown_finding_in_failures_raises(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        _journal(path, deltas=[dict(DELTAS[0], failures={"nope": 1})])
        with pytest.raises(CheckpointError, match="bad commit record"):
            load_checkpoint(path)


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_torn_json(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        _journal(path, deltas=[])
        header = _lines(path)[0]
        with open(path, "wb") as handle:
            handle.write(header[: len(header) // 2])
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(path)
        # a whole header without its newline never committed either
        with open(path, "wb") as handle:
            handle.write(header)
        with pytest.raises(CheckpointError, match="torn header"):
            load_checkpoint(path)

    def test_wrong_schema_version(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        _journal(path)
        header, *records = _lines(path)
        payload = json.loads(header)
        payload["schema_version"] = 99
        _write_lines(path, [json.dumps(payload).encode(), *records])
        with pytest.raises(CheckpointError, match="99"):
            load_checkpoint(path)

    def test_v1_snapshot_refused(self, tmp_path):
        # version 1 rewrote one indented snapshot every batch
        path = tmp_path / "ckpt.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "kind": "campaign-checkpoint",
                    "state": STATE,
                    "offsets": {"ledger_bytes": 0, "fingerprints_bytes": 0},
                    "novel_seen": False,
                    "env": {},
                },
                indent=2,
            )
            + "\n"
        )
        with pytest.raises(CheckpointError, match="schema_version 1"):
            load_checkpoint(str(path))

    def test_missing_state(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        _journal(path)
        header, *records = _lines(path)
        payload = json.loads(header)
        del payload["config"]
        _write_lines(path, [json.dumps(payload).encode(), *records])
        with pytest.raises(CheckpointError, match="missing campaign config"):
            load_checkpoint(path)
        record = json.loads(records[0])
        del record["state"]
        _write_lines(path, [header, json.dumps(record).encode()])
        with pytest.raises(CheckpointError, match="bad commit record"):
            load_checkpoint(path)

    def test_missing_offsets(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        _journal(path)
        header, *records = _lines(path)
        payload = json.loads(header)
        del payload["offsets"]
        _write_lines(path, [json.dumps(payload).encode()])
        with pytest.raises(CheckpointError, match="1: missing byte offsets"):
            load_checkpoint(path)
        record = json.loads(records[0])
        del record["offsets"]
        _write_lines(path, [header, json.dumps(record).encode()])
        with pytest.raises(CheckpointError, match="2: missing byte offsets"):
            load_checkpoint(path)

    def test_negative_offsets(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        _journal(path)
        header, *records = _lines(path)
        record = json.loads(records[0])
        record["offsets"]["ledger_bytes"] = -1
        _write_lines(path, [header, json.dumps(record).encode()])
        with pytest.raises(CheckpointError, match="negative"):
            load_checkpoint(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(CheckpointError, match="JSON object"):
            load_checkpoint(str(path))
