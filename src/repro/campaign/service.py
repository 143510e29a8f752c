"""The asyncio campaign loop: run a batch, commit it, checkpoint, repeat.

One :class:`CampaignService` owns the whole lifecycle of a campaign
process. Each iteration runs one scheduler round
(:func:`repro.fuzz.scheduler.run_round`) on the default executor — the
round itself is synchronous, CPU-bound work fanned across the worker
pool — then *commits* it: one ``campaign`` ledger record, one
fingerprint-JSONL line per key first seen this batch, and one
checkpoint-journal record carrying the batch's state delta and the new
byte offsets (see :mod:`repro.campaign.checkpoint` for why offsets make
resume crash-safe).

SIGINT/SIGTERM set a stop event rather than killing anything: the
in-flight batch drains, commits, checkpoints, and the service returns
normally — so an operator's Ctrl-C and systemd's TERM both leave a
checkpoint the next invocation resumes from. The handlers are in place
before a fresh campaign writes its checkpoint header, so a signal sent
as soon as the checkpoint exists drains too. A *hard* kill (SIGKILL,
OOM) is also survivable, just via the truncate-on-resume path instead.

The worker pool (:class:`~repro.crosstest.executor.WorkerPoolHandle`)
is created once and reused across every batch: a perpetual campaign
must not pay process-pool teardown per round, and keeping workers
alive keeps their parse caches and deployment pools warm — which is
outcome-neutral by the executor's byte-identity guarantee.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.campaign.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointJournal,
    save_checkpoint,
)
from repro.crosstest.executor import (
    CrossTestMetrics,
    WorkerPoolHandle,
    resolve_jobs,
    resolve_pool,
)
from repro.fuzz.dedup import Baseline
from repro.fuzz.scheduler import (
    CampaignState,
    FuzzConfig,
    RoundOutcome,
    run_round,
)
from repro.obs.ledger import campaign_record, run_env

__all__ = ["CampaignService", "CampaignSummary", "fingerprint_lines"]


def fingerprint_lines(state: CampaignState, outcome: RoundOutcome) -> list[str]:
    """The fingerprint-JSONL lines one committed batch contributes: one
    record per key *first seen* this batch, key-sorted. Streaming the
    per-batch delta (rather than rewriting the full set) is what lets an
    interrupted run's file be byte-compared prefix-for-prefix against an
    uninterrupted one."""
    lines = []
    for key in outcome.new_keys:
        finding = state.findings[key]
        lines.append(
            json.dumps(
                {
                    "key": key,
                    "fingerprint": finding.fingerprint.to_json(),
                    "novel": finding.novel,
                    "failures": finding.failure_count,
                    "batch": outcome.round_index,
                },
                sort_keys=True,
            )
        )
    return lines


@dataclass
class CampaignSummary:
    """What one service invocation did, for the CLI to render."""

    batches_run: int
    batches_total: int
    candidates: int
    trials: int
    coverage_features: int
    fingerprints: int
    novel_keys: list[str] = field(default_factory=list)
    novel_seen: bool = False
    resumed: bool = False
    stop_reason: str = "max-batches"

    @property
    def exit_code(self) -> int:
        """4 when any committed batch (this invocation *or* one before
        the checkpoint) witnessed a fingerprint absent from the
        baseline — same contract as ``repro fuzz``."""
        return 4 if self.novel_seen else 0

    def to_json(self) -> dict:
        return {
            "batches_run": self.batches_run,
            "batches_total": self.batches_total,
            "candidates": self.candidates,
            "trials": self.trials,
            "coverage_features": self.coverage_features,
            "fingerprints": self.fingerprints,
            "novel": list(self.novel_keys),
            "novel_seen": self.novel_seen,
            "resumed": self.resumed,
            "stop_reason": self.stop_reason,
            "exit_code": self.exit_code,
        }


class CampaignService:
    """Run a fuzz campaign continuously, checkpointing every batch.

    ``max_batches`` counts *global* batch indices, not this
    invocation's: a campaign stopped by ``--max-batches 1`` and resumed
    with ``--max-batches 3`` runs exactly the two remaining batches —
    which is what makes the kill/resume smoke comparable to an
    uninterrupted 3-batch run. ``duration`` (seconds) stops starting
    new batches once the wall clock is spent; the in-flight batch
    always drains and commits. Both bounds absent = the perpetual case.
    """

    def __init__(
        self,
        config: FuzzConfig,
        baseline: Baseline,
        *,
        checkpoint_path: str,
        fingerprints_path: str,
        ledger_path: str | None = None,
        max_batches: int | None = None,
        duration: float | None = None,
        metrics: CrossTestMetrics | None = None,
        progress: Callable[[RoundOutcome], None] | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.config = config
        self.baseline = baseline
        self.checkpoint_path = checkpoint_path
        self.fingerprints_path = fingerprints_path
        self.ledger_path = ledger_path
        self.max_batches = max_batches
        self.duration = duration
        self.metrics = metrics or CrossTestMetrics(source="campaign")
        self.progress = progress
        self.clock = clock or time.time
        self.state: CampaignState | None = None
        self.resumed = False
        self._journal: CheckpointJournal | None = None
        self._novel_seen = False
        self._ledger_bytes = 0
        self._fingerprints_bytes = 0
        self._stop = asyncio.Event()
        self._stop_reason = "max-batches"

    # -- resume ------------------------------------------------------------

    def request_stop(self, reason: str = "signal") -> None:
        """Drain the in-flight batch, commit it, and exit cleanly."""
        self._stop_reason = reason
        self._stop.set()

    def _align_file(self, path: str, offset: int, label: str) -> None:
        """Truncate an output file back to the checkpoint's offset —
        cutting both torn trailing lines and whole batches that
        committed after the checkpointed one (both get rewritten,
        byte-identically, by re-running)."""
        size = os.path.getsize(path) if os.path.exists(path) else 0
        if size < offset:
            raise CheckpointError(
                f"{path}: {label} is {size} bytes but the checkpoint "
                f"committed {offset} — the file was rewritten or lost "
                "since the checkpoint; refusing to resume onto it"
            )
        if size > offset:
            with open(path, "r+b") as handle:
                handle.truncate(offset)

    def _prepare(self) -> None:
        """Load or initialise state and align the output files."""
        if os.path.exists(self.checkpoint_path):
            journal, checkpoint = CheckpointJournal.open(
                self.checkpoint_path
            )
            expected = self.config.signature()
            # earlier builds also signed a "lanes" switch, which never
            # changed a batch
            found = {
                key: value
                for key, value in checkpoint.state["config"].items()
                if key != "lanes"
            }
            if found != expected:
                raise CheckpointError(
                    f"{self.checkpoint_path}: checkpoint belongs to a "
                    f"different campaign (config {found!r}, this run is "
                    f"{expected!r}); pick a fresh --checkpoint path or "
                    "match the original seed/batch/plan settings"
                )
            try:
                self.state = CampaignState.from_json(
                    checkpoint.state,
                    jobs=self.config.jobs,
                    pool=self.config.pool,
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"{self.checkpoint_path}: unusable campaign state "
                    f"({exc!r})"
                ) from exc
            self._novel_seen = checkpoint.novel_seen
            self._ledger_bytes = checkpoint.ledger_bytes
            self._fingerprints_bytes = checkpoint.fingerprints_bytes
            self._align_file(
                self.fingerprints_path,
                self._fingerprints_bytes,
                "fingerprint JSONL",
            )
            if self.ledger_path is not None:
                self._align_file(
                    self.ledger_path, self._ledger_bytes, "ledger"
                )
            # drop a torn record: the batch it began re-runs
            self._align_file(self.checkpoint_path, journal.size, "checkpoint")
            self._journal = journal
            self.resumed = True
        else:
            self.state = CampaignState.fresh(self.config)
            # a fresh campaign owns its fingerprint file outright...
            with open(self.fingerprints_path, "wb"):
                pass
            self._fingerprints_bytes = 0
            # ...but only appends to the ledger, which may already hold
            # fuzz/crosstest records from other runs
            self._ledger_bytes = (
                os.path.getsize(self.ledger_path)
                if self.ledger_path is not None
                and os.path.exists(self.ledger_path)
                else 0
            )
            # the header records both start offsets before batch 0 can
            # append, so a kill before its commit truncates back to them
            self._journal = CheckpointJournal.create(
                self.checkpoint_path,
                self.config.signature(),
                ledger_bytes=self._ledger_bytes,
                fingerprints_bytes=self._fingerprints_bytes,
                env=self._env(),
            )

    # -- commit ------------------------------------------------------------

    def _append(self, path: str, lines: list[str]) -> int:
        """Append JSONL lines and return the file's new byte size."""
        with open(path, "ab") as handle:
            for line in lines:
                handle.write(line.encode("utf-8") + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
            return handle.tell()

    def _ledger_record(self, outcome: RoundOutcome) -> dict:
        config = self.config
        run = {
            "seed": config.seed,
            "batch": outcome.candidates,
            "batch_index": outcome.round_index,
            "corpus": config.corpus if config.use_corpus else None,
            "plans": sorted(plan.name for plan in config.plans),
            "formats": sorted(config.formats),
        }
        results = {
            "trials": outcome.trials,
            "candidates": outcome.candidates,
            "fingerprints": list(outcome.witnessed),
            "new_fingerprints": list(outcome.new_keys),
            "novel": list(outcome.novel_keys),
            "promoted": outcome.promoted,
            "coverage_features": outcome.coverage_features,
            "rediscovered": list(outcome.rediscovered),
        }
        jobs = resolve_jobs(config.jobs)
        env = run_env(
            jobs=jobs,
            pool=resolve_pool(config.pool, jobs),
            metrics=self.metrics,
        )
        return campaign_record(run, results, clock=self.clock, env=env)

    def _env(self) -> dict:
        jobs = resolve_jobs(self.config.jobs)
        return {
            "ts": float(self.clock()),
            "jobs": jobs,
            "pool": resolve_pool(self.config.pool, jobs),
        }

    def _commit(self, outcome: RoundOutcome) -> None:
        """Make one batch durable: ledger, fingerprints, checkpoint —
        in that order, so the checkpoint's offsets always describe
        fully-written prefixes (see the checkpoint module docstring)."""
        assert self.state is not None and self._journal is not None
        if outcome.novel_keys:
            self._novel_seen = True
        if self.ledger_path is not None:
            line = json.dumps(self._ledger_record(outcome), sort_keys=True)
            self._ledger_bytes = self._append(self.ledger_path, [line])
        self._fingerprints_bytes = self._append(
            self.fingerprints_path, fingerprint_lines(self.state, outcome)
        )
        save_checkpoint(
            self._journal,
            Checkpoint(
                state=self.state.delta_json(outcome),
                ledger_bytes=self._ledger_bytes,
                fingerprints_bytes=self._fingerprints_bytes,
                novel_seen=self._novel_seen,
                env=self._env(),
            ),
            self.state.to_json,
        )

    # -- the loop ----------------------------------------------------------

    def _install_signal_handlers(self, loop: asyncio.AbstractEventLoop):
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum,
                    self.request_stop,
                    signal.Signals(signum).name,
                )
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # non-unix loops: bounded modes still work
        return installed

    async def run(self) -> CampaignSummary:
        """Run until a bound or a signal stops the campaign."""
        loop = asyncio.get_running_loop()
        installed = self._install_signal_handlers(loop)
        pool_handle = None
        try:
            self._prepare()
            state = self.state
            assert state is not None
            started_batches = state.round_index
            deadline = (
                time.monotonic() + self.duration
                if self.duration is not None
                else None
            )
            pool_handle = (
                WorkerPoolHandle(self.config.jobs, self.config.pool)
                if resolve_jobs(self.config.jobs) > 1
                else None
            )
            while not self._stop.is_set():
                if (
                    self.max_batches is not None
                    and state.round_index >= self.max_batches
                ):
                    self._stop_reason = "max-batches"
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    self._stop_reason = "duration"
                    break
                # the round is synchronous CPU-fanout work; running it
                # on the default executor keeps this loop responsive to
                # signals while the batch is in flight
                outcome = await loop.run_in_executor(
                    None,
                    lambda: run_round(
                        state,
                        self.baseline,
                        metrics=self.metrics,
                        pool_handle=pool_handle,
                    ),
                )
                self._commit(outcome)
                if self.progress is not None:
                    self.progress(outcome)
        finally:
            if pool_handle is not None:
                pool_handle.close()
            for signum in installed:
                loop.remove_signal_handler(signum)
        return CampaignSummary(
            batches_run=state.round_index - started_batches,
            batches_total=state.round_index,
            candidates=state.candidates,
            trials=state.trials_run,
            coverage_features=len(state.coverage),
            fingerprints=len(state.findings),
            novel_keys=state.novel_keys,
            novel_seen=self._novel_seen,
            resumed=self.resumed,
            stop_reason=self._stop_reason,
        )
