"""Campaign checkpoints: an append-only JSONL journal with a commit protocol.

A checkpoint file is a journal of JSON lines. The first line is the
**header**: ``kind``, ``schema_version``, the campaign's config
signature, and the *start offsets* — how many bytes the ledger and the
fingerprint JSONL held before the campaign's first batch. Every later
line is one **commit record**: a :class:`Checkpoint` whose ``state``
holds only what its batch changed (coverage features first seen,
promoted ``(round, slot, input_id)`` entries, new findings with their
witness provenance, current failure counts of re-witnessed findings,
newly rediscovered numbers) plus the cumulative counters, and whose
offsets are how far the ledger and the fingerprint JSONL had been
written when the batch committed. :func:`load_checkpoint` folds the
records over the header into exactly the dict
:meth:`~repro.fuzz.scheduler.CampaignState.to_json` returns, so a
batch commits in time proportional to the batch, not to the campaign.

The commit order per batch is append-ledger → append-fingerprints →
append the commit record (fsynced). A line's terminating newline is
its commit point: bytes after the file's last newline are a **torn
record**, an uncommitted batch that readers skip and resume truncates.
Either output append can be torn by a hard kill too, and a kill
between the appends and the commit record leaves a fully-written batch
the checkpoint does not know about. All of these resolve the same way
on resume: truncate each file back to its last committed offset, then
re-run the batch — which, by the scheduler's determinism guarantee,
rewrites the exact bytes that were cut. No batch is ever duplicated or
lost. The header is written before the first batch runs, so even a
kill before the first commit leaves start offsets to truncate back to.

**Compaction.** When an append leaves the file more than twice the
size it had after its last full rewrite, :func:`save_checkpoint`
rewrites it as the header plus one full-state commit record, through a
tmp file, fsync and ``os.replace``: a reader (or a crash) sees the old
journal or the new one, never a mix, and a ``.tmp`` left by a crashed
rewrite is never read. The file so stays within about twice one
compact snapshot, and rewrites come geometrically rarer as the
campaign grows.

A newline-terminated record that does not fold, a torn or unreadable
header, and a schema-version-1 checkpoint (one indented JSON snapshot,
rewritten whole every batch) all raise :class:`CheckpointError`;
version 1 is not migrated, so such a campaign starts afresh at a new
path.

The volatile ``env`` section (timestamps, host) is for humans and the
``/campaign`` endpoint; nothing in it feeds restoration.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Callable

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointJournal",
    "load_checkpoint",
    "save_checkpoint",
]

CHECKPOINT_SCHEMA_VERSION = 2

#: the ``kind`` of a journal's header line and of its commit records
_HEADER_KIND = "campaign-checkpoint"
_COMMIT_KIND = "commit"


class CheckpointError(Exception):
    """An unusable checkpoint: unreadable, wrong schema, or
    inconsistent with the files it points at."""


@dataclass
class Checkpoint:
    """One committed campaign position.

    Loaded, ``state`` is the :meth:`CampaignState.to_json` payload the
    journal folds to; in a commit record it is what one batch changed
    (see :meth:`CampaignState.delta_json`). ``ledger_bytes``/
    ``fingerprints_bytes`` are the sizes the output files had after the
    last committed batch (resume truncates back to them);
    ``novel_seen`` remembers whether any committed batch witnessed a
    fingerprint absent from the baseline, because exit code 4 must
    survive a kill/resume even when the novel finding landed before the
    kill.
    """

    state: dict
    ledger_bytes: int = 0
    fingerprints_bytes: int = 0
    novel_seen: bool = False
    env: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """This position as a commit record (the config lives in the
        journal's header, not in its records)."""
        return {
            "kind": _COMMIT_KIND,
            "state": {
                key: value
                for key, value in self.state.items()
                if key != "config"
            },
            "offsets": {
                "ledger_bytes": self.ledger_bytes,
                "fingerprints_bytes": self.fingerprints_bytes,
            },
            "novel_seen": self.novel_seen,
            "env": dict(self.env),
        }


def _line(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class CheckpointJournal:
    """The write side of one checkpoint file.

    ``size`` is the file's committed length; ``compact_size`` is its
    length right after the last full rewrite, which bounds it (see
    :func:`save_checkpoint`). ``header`` is the header line verbatim: a
    rewrite keeps the campaign's config and start offsets.
    """

    def __init__(
        self, path: str, header: bytes, size: int, compact_size: int
    ) -> None:
        self.path = path
        self.header = header
        self.size = size
        self.compact_size = compact_size

    @classmethod
    def create(
        cls,
        path: str,
        config: dict,
        *,
        ledger_bytes: int = 0,
        fingerprints_bytes: int = 0,
        env: dict | None = None,
    ) -> "CheckpointJournal":
        """Start a fresh campaign's journal: write its header, durably,
        before any batch can append to the ledger."""
        header = _line(
            {
                "schema_version": CHECKPOINT_SCHEMA_VERSION,
                "kind": _HEADER_KIND,
                "config": config,
                "offsets": {
                    "ledger_bytes": ledger_bytes,
                    "fingerprints_bytes": fingerprints_bytes,
                },
                "env": dict(env or {}),
            }
        )
        journal = cls(path, header, 0, 0)
        journal._replace(header)
        return journal

    @classmethod
    def open(cls, path: str) -> tuple["CheckpointJournal", Checkpoint]:
        """Read an existing journal without changing it. The caller
        truncates the file back to ``size`` before appending, which
        drops a torn record."""
        checkpoint, header, compact_size, size = _read(path)
        return cls(path, header, size, compact_size), checkpoint

    def append(self, commit: Checkpoint) -> None:
        """Append one commit record and fsync it."""
        line = _line(commit.to_json())
        with open(self.path, "ab") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        self.size += len(line)

    def rewrite(self, checkpoint: Checkpoint) -> None:
        """Replace the journal by its header plus one record holding
        ``checkpoint``'s full state."""
        self._replace(self.header + _line(checkpoint.to_json()))

    def _replace(self, payload: bytes) -> None:
        tmp_path = f"{self.path}.tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        # the rename itself must be durable before a batch appends to
        # the ledger, or a power cut could lose the header that batch
        # needs to be truncated away on resume (Windows cannot open a
        # directory to fsync it)
        if os.name == "posix":
            directory = os.open(
                os.path.dirname(os.path.abspath(self.path)), os.O_RDONLY
            )
            try:
                os.fsync(directory)
            finally:
                os.close(directory)
        self.size = self.compact_size = len(payload)


def save_checkpoint(
    journal: CheckpointJournal,
    commit: Checkpoint,
    full_state: Callable[[], dict],
) -> None:
    """Commit one batch: append ``commit`` (its ``state`` is the
    batch's delta) and fsync.

    When the append leaves the file more than twice its size after the
    last rewrite, rewrite it atomically as the header plus one record
    of ``full_state()`` — so the file never exceeds twice a compact
    snapshot plus one record, and each rewrite is paid for by the
    appends since the one before.
    """
    journal.append(commit)
    if journal.size > 2 * journal.compact_size:
        journal.rewrite(replace(commit, state=full_state()))


def load_checkpoint(path: str) -> Checkpoint:
    """Fold a checkpoint journal into its last committed position;
    :class:`CheckpointError` on anything unusable (a *missing* file
    included — the caller decides whether that means "fresh campaign"
    and should check existence first). A torn last record is skipped."""
    return _read(path)[0]


def _position(
    path: str, lineno: int, payload: dict, checkpoint: Checkpoint
) -> None:
    """Move ``checkpoint`` to the offsets, ``novel_seen`` and ``env``
    of a header (the campaign's start) or of a commit record."""
    offsets = payload.get("offsets")
    try:
        ledger_bytes = int(offsets["ledger_bytes"])
        fingerprints_bytes = int(offsets["fingerprints_bytes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}:{lineno}: missing byte offsets"
        ) from exc
    if ledger_bytes < 0 or fingerprints_bytes < 0:
        raise CheckpointError(f"{path}:{lineno}: negative byte offsets")
    env = payload.get("env", {})
    if not isinstance(env, dict):
        raise CheckpointError(f"{path}:{lineno}: env is not an object")
    checkpoint.ledger_bytes = ledger_bytes
    checkpoint.fingerprints_bytes = fingerprints_bytes
    checkpoint.novel_seen = bool(payload.get("novel_seen", False))
    checkpoint.env = dict(env)


def _header(path: str, data: bytes, first: bytes) -> dict:
    try:
        header = json.loads(first)
    except ValueError as exc:
        try:
            # a schema-version-1 checkpoint is one indented JSON object
            header = json.loads(data)
        except ValueError:
            raise CheckpointError(
                f"{path}: header is not valid JSON ({exc})"
            ) from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: expected a JSON object header")
    version = header.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: schema_version {version!r}, "
            f"this build reads {CHECKPOINT_SCHEMA_VERSION}; start the "
            "campaign afresh at a new --checkpoint path"
        )
    if header.get("kind") != _HEADER_KIND or not isinstance(
        header.get("config"), dict
    ):
        raise CheckpointError(f"{path}: missing campaign config")
    return header


def _fold(state: dict, delta: dict) -> None:
    """Apply one commit record's ``state`` to the folded state."""
    # the counters are cumulative: the last record's values stand
    for name in ("candidates", "round_index", "trials_run"):
        state[name] = int(delta[name])
    state["coverage"].update(delta["coverage"])
    state["promoted"].extend(list(entry) for entry in delta["promoted"])
    for finding in delta["findings"]:
        state["findings"][finding["key"]] = dict(finding)
    # a full-state record (a rewrite) re-witnesses nothing
    for key, failures in delta.get("failures", {}).items():
        state["findings"][key]["failures"] = int(failures)
    state["rediscovered"].update(delta["rediscovered"])


def _read(path: str) -> tuple[Checkpoint, bytes, int, int]:
    """Fold the journal at ``path``. Returns the checkpoint, the header
    line, the length of the header plus the first record (the size
    after the last rewrite, once one happened) and the committed
    length (everything up to the last newline)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError as exc:
        raise CheckpointError(f"{path}: no checkpoint") from exc
    committed = data.rfind(b"\n") + 1
    lines = data[:committed].split(b"\n")[:-1]
    header = _header(path, data, lines[0] if lines else data)
    if not lines:
        raise CheckpointError(f"{path}: torn header")
    checkpoint = Checkpoint(state={"config": header["config"]})
    _position(path, 1, header, checkpoint)
    state = {
        "candidates": 0,
        "round_index": 0,
        "trials_run": 0,
        "coverage": set(),
        "promoted": [],
        "findings": {},
        "rediscovered": set(),
    }
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
            if record.get("kind") != _COMMIT_KIND:
                raise ValueError(f"kind {record.get('kind')!r}")
            _fold(state, record["state"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"{path}:{lineno}: bad commit record ({exc!r})"
            ) from exc
        _position(path, lineno, record, checkpoint)
    checkpoint.state.update(
        candidates=state["candidates"],
        round_index=state["round_index"],
        trials_run=state["trials_run"],
        coverage=sorted(state["coverage"]),
        promoted=state["promoted"],
        findings=[state["findings"][key] for key in sorted(state["findings"])],
        rediscovered=sorted(state["rediscovered"]),
    )
    compact_size = sum(len(line) + 1 for line in lines[:2])
    return checkpoint, lines[0] + b"\n", compact_size, committed
