"""The campaign run ledger: an append-only JSONL store of harness runs.

The paper's cross-system failures are found by *campaigns*, not single
runs — yet until this module every ``crosstest``/``fuzz``/chaos
invocation was one-shot: fingerprints, fault classifications and
metrics evaporated with the process. The ledger gives every run a
durable, structured record so questions that only make sense *across*
runs ("which discrepancies keep failing together?") become answerable
(:mod:`repro.obs.cluster` computes exactly that).

**Determinism contract.** A record has two parts:

* Everything outside ``env`` and ``ts`` — ``kind``, ``run``,
  ``results`` — is a pure function of the run's inputs ``(corpus,
  seed, conf, fault plan)``. At a fixed seed the section is
  byte-identical at every ``--jobs``/pool setting, which is what lets
  two ledgers from different machines diff cleanly (and what the
  determinism tests pin at jobs 1/2/4 on thread and process pools).
* ``env`` and ``ts`` are explicitly *volatile*: wall clock, host
  cores, worker count and pool, latency histogram snapshots, git
  metadata. Consumers that compare or cluster records must ignore them;
  :func:`canonical_record` strips both — which is how a campaign
  killed mid-run and resumed hours later still produces
  canonically-identical records to an uninterrupted run.

``ts`` is stamped through an injectable ``clock`` callable (defaulting
to :func:`time.time`) so tests — and any caller that wants
byte-reproducible ledgers — can fix it.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Callable

from repro.errors import ReproError

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "LEDGER_SCHEMA",
    "LedgerError",
    "Ledger",
    "read_ledger",
    "read_ledger_with_tail",
    "check_schema",
    "canonical_record",
    "crosstest_record",
    "fuzz_record",
    "campaign_record",
    "run_env",
]

#: bump when a record field changes meaning or shape; ``repro status``
#: refuses a ledger whose records disagree with the reader's version.
LEDGER_SCHEMA_VERSION = 1

#: The record schema, by top-level key. Documentation *and* contract:
#: the ``status-smoke`` CI step fails when a recorded ledger drifts
#: from this version, and the field map below is what EXPERIMENTS.md's
#: "Reading the campaign ledger" walkthrough refers to.
LEDGER_SCHEMA = {
    "version": LEDGER_SCHEMA_VERSION,
    "record": {
        "schema_version": "int — LEDGER_SCHEMA_VERSION at write time",
        "kind": (
            "str — 'crosstest' (incl. chaos runs), 'fuzz', or "
            "'campaign' (one record per always-on campaign batch)"
        ),
        "ts": (
            "float — unix time from the injectable clock; volatile "
            "(stripped by canonical_record alongside env)"
        ),
        "run": {
            "crosstest": (
                "corpus, conf, plans, formats, fault_plan, fault_seed"
            ),
            "fuzz": "seed, budget, batch, corpus, plans, formats",
            "campaign": (
                "seed, batch, batch_index, corpus, plans, formats"
            ),
        },
        "results": {
            "trials": "int — trials executed",
            "failures": "dict — oracle-log name -> failure count",
            "found_discrepancies": "list[int] — catalog numbers",
            "fingerprints": "list[str] — mechanism fingerprint keys",
            "faults": (
                "only for injected runs: plan, seed, injected_trials, "
                "classifications, mis_handled "
                "[{trial, mode, sites: ['site/operation', ...]}]"
            ),
            "coverage_features": "fuzz only: distinct coverage features",
            "novel": "fuzz only: fingerprint keys not in the baseline",
            "rediscovered": "fuzz only: rediscovered catalog numbers",
            "campaign": (
                "campaign records scope these per batch: fingerprints "
                "witnessed, new_fingerprints/novel first seen, "
                "candidates, plus cumulative coverage_features"
            ),
        },
        "env": (
            "volatile facts, excluded from determinism guarantees: "
            "cores, jobs, pool (resolved: thread|process), wall_s, "
            "metrics (registry snapshot incl. latency histograms), "
            "git {commit}"
        ),
    },
}


class LedgerError(ReproError):
    """A ledger could not be read, parsed, or version-matched."""


class Ledger:
    """One append-only JSONL ledger file.

    ``append`` serializes with ``sort_keys`` so a record's bytes depend
    only on its content, never on dict construction order; a crashed
    writer can at worst leave one truncated final line, which
    :func:`read_ledger` reports with its line number.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def append(self, record: dict) -> dict:
        line = json.dumps(record, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return record

    def read(self) -> list[dict]:
        return read_ledger(self.path)


def read_ledger(
    path: str, *, tolerate_truncated_tail: bool = False
) -> list[dict]:
    """Every record in the ledger, file order; a missing file is an
    empty campaign (``[]``), not an error — "no runs recorded" is a
    legitimate state the status surface renders as such.

    ``tolerate_truncated_tail`` drops an unparseable *final* line
    instead of raising — the hard-kill case: a writer killed mid-append
    leaves at most one torn trailing line, and a status surface polling
    a live campaign must render the intact prefix rather than 500. A
    corrupt line anywhere *before* the tail still raises — that is file
    damage, not an append in flight.
    """
    records, truncated = read_ledger_with_tail(path)
    if truncated is not None and not tolerate_truncated_tail:
        lineno, reason = truncated
        raise LedgerError(f"{path}:{lineno}: not a JSON record ({reason})")
    return records


def read_ledger_with_tail(
    path: str,
) -> tuple[list[dict], tuple[int, str] | None]:
    """Like :func:`read_ledger`, but report a torn tail instead of
    deciding about it: returns ``(records, truncated)`` where
    ``truncated`` is ``None`` for a clean ledger or ``(lineno,
    reason)`` for an unparseable final line (which is *not* included in
    ``records``). Callers that tolerate the tail should still surface
    it — detected and tolerated, never silently mis-parsed."""
    try:
        handle = open(path, encoding="utf-8")
    except FileNotFoundError:
        return [], None
    records: list[dict] = []
    bad: tuple[int, str] | None = None
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if bad is not None:
                # the bad line was not the tail after all
                raise LedgerError(
                    f"{path}:{bad[0]}: not a JSON record ({bad[1]})"
                )
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError as exc:
                bad = (lineno, str(exc))
                continue
            if not isinstance(payload, dict):
                raise LedgerError(
                    f"{path}:{lineno}: expected a JSON object, "
                    f"got {type(payload).__name__}"
                )
            records.append(payload)
    return records, bad


def check_schema(records: list[dict], path: str = "ledger") -> None:
    """Refuse records whose schema version drifted from this reader's.

    Raises :class:`LedgerError` naming every drifted version — the
    check behind the CI ``status-smoke`` gate.
    """
    drifted = sorted(
        {
            str(record.get("schema_version"))
            for record in records
            if record.get("schema_version") != LEDGER_SCHEMA_VERSION
        }
    )
    if drifted:
        raise LedgerError(
            f"{path}: schema-version drift: found version(s) "
            f"{', '.join(drifted)}, this reader speaks "
            f"v{LEDGER_SCHEMA_VERSION}"
        )


def canonical_record(record: dict) -> dict:
    """The record minus its volatile sections (``env`` and ``ts``) —
    the part the determinism contract covers and the clustering reads.
    ``ts`` is wall-clock: a campaign killed mid-run and resumed hours
    later stamps later times on the re-run batches, but its canonical
    records must still be byte-identical to an uninterrupted run."""
    return {
        key: value for key, value in record.items() if key not in ("env", "ts")
    }


def _stamp(clock: Callable[[], float] | None) -> float:
    return float((clock or time.time)())


def crosstest_record(
    report,
    metrics=None,
    *,
    corpus: str = "full",
    conf_overrides: dict[str, object] | None = None,
    clock: Callable[[], float] | None = None,
    env: dict | None = None,
) -> dict:
    """One ledger record for a §8 matrix run (chaos runs included).

    ``report`` is a :class:`~repro.crosstest.report.CrossTestReport`;
    ``metrics`` (a :class:`~repro.crosstest.CrossTestMetrics`) only
    feeds the volatile ``env`` section when the caller did not pass an
    explicit ``env``. Everything else lands in the deterministic
    sections — fingerprints via :meth:`CrossTestReport.fingerprints`,
    fault classifications from the attached fault report.
    """
    from repro.crosstest.fingerprint import conf_label

    conf = conf_label(conf_overrides)
    results: dict[str, object] = {
        "trials": len(report.trials),
        "failures": {
            log: len(failures)
            for log, failures in sorted(report.failures_by_log().items())
        },
        "found_discrepancies": sorted(report.found_numbers),
        "fingerprints": sorted(report.fingerprints(conf)),
    }
    fault_plan = None
    fault_seed = None
    if report.faults is not None:
        fault_plan = report.faults.plan.name
        fault_seed = report.faults.seed
        mis_handled = []
        for index in report.faults.mis_handled():
            verdict = report.faults.verdicts[index]
            mis_handled.append(
                {
                    "trial": report.faults.trial_keys.get(
                        index, str(index)
                    ),
                    "mode": verdict.mode,
                    "sites": sorted(
                        {
                            f"{record.site}/{record.operation}"
                            for record in report.faults.injections.get(
                                index, ()
                            )
                        }
                    ),
                }
            )
        results["faults"] = {
            "plan": fault_plan,
            "seed": fault_seed,
            "injected_trials": report.faults.injected_trials,
            "classifications": report.faults.counts(),
            "mis_handled": mis_handled,
        }
    if env is None and metrics is not None:
        env = run_env(metrics=metrics)
    return {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "kind": "crosstest",
        "ts": _stamp(clock),
        "run": {
            "corpus": corpus,
            "conf": conf,
            "plans": sorted({t.plan.name for t in report.trials}),
            "formats": sorted({t.fmt for t in report.trials}),
            "fault_plan": fault_plan,
            "fault_seed": fault_seed,
        },
        "results": results,
        "env": dict(env or {}),
    }


def fuzz_record(
    result,
    metrics=None,
    *,
    clock: Callable[[], float] | None = None,
    env: dict | None = None,
) -> dict:
    """One ledger record for a fuzz campaign.

    ``result`` is a :class:`~repro.fuzz.scheduler.FuzzResult`; its
    :meth:`~repro.fuzz.scheduler.FuzzResult.ledger_results` payload is
    deterministic by the campaign's own guarantee, so the record stays
    byte-reproducible at any ``--jobs``/pool setting.
    """
    config = result.config
    if env is None and metrics is not None:
        env = run_env(metrics=metrics)
    return {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "kind": "fuzz",
        "ts": _stamp(clock),
        "run": {
            "seed": config.seed,
            "budget": config.budget,
            "batch": config.batch,
            "corpus": config.corpus if config.use_corpus else None,
            "plans": sorted(plan.name for plan in config.plans),
            "formats": sorted(config.formats),
        },
        "results": result.ledger_results(),
        "env": dict(env or {}),
    }


def campaign_record(
    run: dict,
    results: dict,
    *,
    clock: Callable[[], float] | None = None,
    env: dict | None = None,
) -> dict:
    """One ledger record per committed campaign batch.

    ``run`` identifies the batch within the campaign (seed, batch size,
    ``batch_index``, plans, formats, corpus); ``results`` carries the
    batch outcome — ``fingerprints`` lists every key *witnessed* this
    batch (so cluster co-occurrence sees the batch's full failure set),
    ``new_fingerprints``/``novel`` the subset first seen here, plus
    cumulative ``coverage_features`` and ``rediscovered``. Both dicts
    are deterministic by the campaign's own guarantee; only ``ts`` and
    ``env`` are volatile.
    """
    return {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "kind": "campaign",
        "ts": _stamp(clock),
        "run": dict(run),
        "results": dict(results),
        "env": dict(env or {}),
    }


def run_env(
    *,
    jobs: int | None = None,
    pool: str | None = None,
    wall_s: float | None = None,
    metrics=None,
) -> dict:
    """The volatile ``env`` section of a record, from what the caller
    measured plus the host's core count and best-effort git metadata.
    ``pool`` should be the resolved flavour (``thread``/``process``),
    not ``auto``. Nothing here feeds clustering or determinism checks —
    see :func:`canonical_record`."""
    env: dict[str, object] = {"cores": os.cpu_count() or 1}
    if jobs is not None:
        env["jobs"] = int(jobs)
    if pool is not None:
        env["pool"] = str(pool)
    if wall_s is not None:
        env["wall_s"] = round(float(wall_s), 6)
    if metrics is not None:
        env["metrics"] = metrics.snapshot()
    git = _git_metadata()
    if git is not None:
        env["git"] = git
    return env


# The git probe is cached per process: a long campaign appends one
# record per batch, and paying a `git rev-parse` fork on every append
# adds up to real wall time for a fact that cannot change under a
# running process. `_clear_metadata_cache()` (for tests) resets it.
_METADATA_CACHE: dict[str, dict | None] = {}


def _clear_metadata_cache() -> None:
    _METADATA_CACHE.clear()


def _git_metadata() -> dict | None:
    if "git" not in _METADATA_CACHE:
        _METADATA_CACHE["git"] = _probe_git_metadata()
    return _METADATA_CACHE["git"]


def _probe_git_metadata() -> dict | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if proc.returncode == 0 and proc.stdout.strip():
            return {"commit": proc.stdout.strip()}
    except Exception:  # noqa: BLE001 - metadata is strictly best-effort
        pass
    return None
