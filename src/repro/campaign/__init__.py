"""The always-on campaign service: the scheduler the ledger was for.

PR 8 shipped the observability half (ledger, clustering, ``repro
status``); this package ships the half that feeds it perpetually. A
:class:`CampaignService` streams seeded batches from
:mod:`repro.fuzz.scheduler` through the sharded
:mod:`repro.crosstest.executor` on an asyncio loop, deduplicates
fingerprints online against the committed baseline as each batch
lands, appends one ledger record per batch, and journals each batch's
campaign-state changes to an append-only checkpoint so a killed
campaign resumes *exactly* where it stopped — SIGINT/SIGTERM drain the
in-flight batch, commit it, write the checkpoint, and exit cleanly.

The determinism contract is the hard part and the whole point: a
campaign killed mid-run and resumed from its checkpoint emits
byte-identical fingerprint JSONL and canonical ledger records to an
uninterrupted run of the same seed, at any ``--jobs``/pool setting.
:mod:`repro.campaign.checkpoint` carries the crash-safe commit
protocol (byte-offset truncation on resume); the byte-identity grid in
``tests/campaign/`` and the ``campaign-smoke`` CI job pin the
guarantee.
"""

from repro.campaign.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointJournal,
    load_checkpoint,
    save_checkpoint,
)
from repro.campaign.service import (
    CampaignService,
    CampaignSummary,
    fingerprint_lines,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CampaignService",
    "CampaignSummary",
    "Checkpoint",
    "CheckpointError",
    "CheckpointJournal",
    "fingerprint_lines",
    "load_checkpoint",
    "save_checkpoint",
]
