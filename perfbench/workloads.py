"""The three workloads: set-up, the timed closed loop, the output checks.

This module runs inside the measuring process (:mod:`perfbench.child`).
Every workload is a closed loop of units run one at a time: the next
unit starts when the previous one has ended. Units use ``jobs`` = the
host's core count and ``pool="auto"``, the ``repro crosstest`` default.

* ``matrix``: one unit is the full curated corpus (10,128 trials) the
  way ``repro crosstest`` runs it, rendering the default text summary.
  Lanes, plan caches, format serde and the serial post-processing do
  most of their work here; tracing, faults and checkpoints do none.
* ``chaos-smoke``: one unit is the 14-input smoke corpus under the
  builtin ``smoke`` fault plan, rendering the fault report as
  ``--fault-json`` does. Short one-shot passes, so pool start, pre-warm,
  baseline reruns and the robustness oracle weigh as much as trials.
* ``campaign``: ``CampaignService`` from a fresh checkpoint with a
  persistent pool; one unit is one committed batch of 16 candidates.
  Traced rounds with the plan cache off, and a checkpoint that grows
  with every batch.
"""

from __future__ import annotations

import contextlib
import gc
import json
import multiprocessing
import os
import resource
from dataclasses import dataclass
from typing import Callable

from perfbench.spans import Recorder, clock

#: candidates per campaign batch, as in the nightly workflow
BATCH = 16
#: the plain path every reference is computed through
PLAIN_CONF = {"repro.plan.cache.enabled": "false"}
#: discrepancies the §8 corpus and the smoke corpus must both find
DISCREPANCIES = 15


def parse_misses() -> int:
    from repro.sql.parser import parse_statement

    return parse_statement.cache_info().misses


def peak_rss_mb() -> float:
    """Peak RSS so far of this process plus that of its largest pool
    worker, whether the worker has ended or is still alive."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for proc in multiprocessing.active_children():
        try:
            with open(f"/proc/{proc.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        child = max(child, int(line.split()[1]))
        except OSError:
            pass  # the worker ended between the listing and the read
    return (own + child) / 1024.0


def host_stamp(jobs: int) -> dict:
    """What every parallel number needs to name its host."""
    import platform

    from repro.crosstest.executor import resolve_pool

    return {
        "cores": os.cpu_count() or 1,
        "jobs": jobs,
        "pool": resolve_pool("auto", jobs),
        "start_method": multiprocessing.get_start_method(),
        "python": platform.python_version(),
    }


# -- one-shot passes: matrix and chaos-smoke --------------------------------


def _render_summary(report) -> str:
    return "\n".join(report.summary_lines())


def _render_faults(report) -> str:
    return json.dumps(report.faults.to_json(), indent=1, sort_keys=True) + "\n"


@dataclass
class Passes:
    """``matrix`` or ``chaos-smoke``: one ``run_crosstest`` call a unit."""

    name: str
    seed: int
    jobs: int
    #: wraps rendering; the traced run passes a ``report.render`` span
    render_span: Callable = contextlib.nullcontext

    def setup(self) -> None:
        from repro.crosstest.report import run_crosstest

        self._run = run_crosstest
        if self.name == "matrix":
            from repro.crosstest.values import generate_inputs

            self._inputs = generate_inputs()
            self._faults = {}
            self._render = _render_summary
        else:
            from repro.crosstest.smoke import smoke_inputs
            from repro.faults import load_plan

            self._inputs = smoke_inputs()
            self._faults = {
                "fault_plan": load_plan("smoke"),
                "fault_seed": self.seed,
            }
            self._render = _render_faults

    def unit(self) -> tuple[object, str]:
        report = self._run(
            inputs=self._inputs, jobs=self.jobs, pool="auto", **self._faults
        )
        with self.render_span():
            rendered = self._render(report)
        return report, rendered

    def plain(self) -> dict:
        """The reference: ``jobs=1``, no lanes, no plan cache; plus the
        input ids that evidence each discrepancy in a fault-free pass."""
        self.setup()
        plain = {"jobs": 1, "batch": False, "conf_overrides": PLAIN_CONF}
        report = self._run(inputs=self._inputs, **plain, **self._faults)
        clean = (
            self._run(inputs=self._inputs, **plain) if self._faults else report
        )
        return {
            "rendered": self._render(report),
            "report": json.dumps(report.to_json(), indent=1),
            "evidence": {
                str(number): sorted(
                    {trial.test_input.input_id for trial in ev.trials}
                )
                for number, ev in clean.evidence.items()
                if ev.found
            },
        }

    def check(self, report, rendered: str, reference: dict) -> str | None:
        """Why this unit's output is wrong, or ``None`` if it is right.

        Every discrepancy must be found, except one whose every evidence
        input had a trial that an injected fault gracefully failed
        (retries exhausted into a typed error): the fault taxonomy
        counts that as a correct outcome, and it hides the evidence.
        """
        evidence = reference["evidence"]
        if len(evidence) != DISCREPANCIES:
            return (
                f"the fault-free pass found {len(evidence)}/"
                f"{DISCREPANCIES} discrepancies"
            )
        failed = _gracefully_failed_inputs(report)
        lost = sorted(
            int(number)
            for number, inputs in evidence.items()
            if int(number) not in report.found_numbers
            and not set(inputs) <= failed
        )
        if lost:
            return (
                f"found {len(report.found_numbers)}/{DISCREPANCIES}"
                " discrepancies; no fault explains the loss of "
                + ", ".join(f"#{number}" for number in lost)
            )
        if report.faults is not None and report.faults.mis_handled():
            return f"{len(report.faults.mis_handled())} mis-handled trials"
        if rendered != reference["rendered"]:
            return "rendered output differs from the plain-path reference"
        if json.dumps(report.to_json(), indent=1) != reference["report"]:
            return "JSON report differs from the plain-path reference"
        return None


def _gracefully_failed_inputs(report) -> set[int]:
    if report.faults is None:
        return set()
    return {
        report.trials[index].test_input.input_id
        for index, verdict in report.faults.verdicts.items()
        if verdict.classification == "gracefully_failed"
    }


def measure_passes(
    workload: Passes,
    seconds: float,
    t0: float,
    reference_path: str | None,
    rec: Recorder | None = None,
) -> dict:
    """Set up, run the cold unit, then units until ``seconds`` are timed.

    Unit 0 is the cold unit and belongs to set-up. Each timed unit is
    preceded by a full garbage collection that freezes its survivors
    and followed by its check, both outside its interval, so neither
    counts as unit time;
    the reference is read only after set-up has been measured, so it
    adds neither to set-up time nor to set-up memory.
    """
    units: list[dict] = []
    reference: dict = {}

    def run_unit(index: int) -> None:
        if index > 0:
            # a one-shot pass starts from a fresh heap: collect what the
            # earlier passes left and freeze the survivors, or their
            # garbage and their growing heap land as sporadic full
            # collections in whichever unit trips the collector
            gc.collect()
            gc.freeze()
        if rec is not None:
            rec.set_unit(index)
            misses = parse_misses()
        start = clock()
        error = None
        try:
            report, rendered = workload.unit()
        except Exception as exc:  # noqa: BLE001 - a raising unit is data
            report, rendered = None, ""
            error = f"raised {type(exc).__name__}: {exc}"
        end = clock()
        if rec is not None:
            rec.add("sql.parse_misses", parse_misses() - misses)
            rec.set_unit(-1)
        units.append({"index": index, "start": start, "end": end})
        if index == 0:
            units[-1]["setup_s"] = end - t0
            units[-1]["setup_rss_mb"] = peak_rss_mb()
        if report is not None and reference_path is not None:
            if not reference:
                with open(reference_path, encoding="utf-8") as handle:
                    reference.update(json.load(handle))
            error = workload.check(report, rendered, reference)
        units[-1]["trials"] = len(report.trials) if report is not None else 0
        units[-1]["error"] = error

    workload.setup()
    run_unit(0)
    timed = 0.0
    while timed < seconds:
        run_unit(len(units))
        timed += units[-1]["end"] - units[-1]["start"]
    return {
        "setup_s": units[0]["setup_s"],
        "setup_rss_mb": units[0]["setup_rss_mb"],
        "units": units,
    }


# -- campaign ---------------------------------------------------------------


def campaign_paths(out_dir: str) -> dict[str, str]:
    return {
        "checkpoint_path": os.path.join(out_dir, "checkpoint.json"),
        "fingerprints_path": os.path.join(out_dir, "fingerprints.jsonl"),
        "ledger_path": os.path.join(out_dir, "ledger.jsonl"),
    }


def campaign_service(
    seed: int,
    jobs: int,
    out_dir: str,
    progress: Callable | None = None,
    max_batches: int | None = None,
):
    from repro.campaign import CampaignService
    from repro.fuzz import Baseline, FuzzConfig, default_baseline_path

    config = FuzzConfig(
        seed=seed,
        budget=BATCH,
        batch=BATCH,
        jobs=jobs,
        pool="auto",
        shrink=False,
    )
    return CampaignService(
        config,
        Baseline.load(default_baseline_path()),
        max_batches=max_batches,
        progress=progress,
        **campaign_paths(out_dir),
    )


class CampaignLoop:
    """The ``progress`` callback that times batches and stops the run.

    Batch 0 is the cold unit and ends set-up. A batch's interval runs
    from the end of the previous callback to the start of its own, so
    it spans the round and the commit up to a durable checkpoint.
    """

    def __init__(
        self,
        seconds: float,
        t0: float,
        out_dir: str,
        rec: Recorder | None = None,
    ) -> None:
        self.seconds = seconds
        self.t0 = t0
        self.paths = campaign_paths(out_dir)
        self.rec = rec
        self.service = None
        self.units: list[dict] = []
        self.setup_s = 0.0
        self.setup_rss_mb = 0.0
        self.start = 0.0
        self._timed = 0.0
        self._ledger_bytes = 0
        self._misses = parse_misses() if rec is not None else 0

    def __call__(self, outcome) -> None:
        now = clock()
        index = outcome.round_index
        if index == 0:
            self.setup_s = now - self.t0
            self.setup_rss_mb = peak_rss_mb()
            self.start = self.t0
        else:
            self._timed += now - self.start
        self.units.append(
            {
                "index": index,
                "start": self.start,
                "end": now,
                "trials": outcome.trials,
                "error": None,
            }
        )
        if self._timed >= self.seconds:
            self.service.request_stop("benchmark")
        if self.rec is not None:
            self._trace(index, now)
        self.start = clock()

    def _trace(self, index: int, now: float) -> None:
        rec = self.rec
        rec.interval("campaign.commit", rec.round_end, now)
        rec.add(
            "campaign.checkpoint_bytes",
            os.path.getsize(self.paths["checkpoint_path"]),
        )
        size = os.path.getsize(self.paths["ledger_path"])
        rec.add("obs.ledger_bytes_per_batch", size - self._ledger_bytes)
        self._ledger_bytes = size
        misses = parse_misses()
        rec.add("sql.parse_misses", misses - self._misses)
        self._misses = misses
        rec.set_unit(index + 1)


def measure_campaign(
    seed: int,
    jobs: int,
    seconds: float,
    t0: float,
    out_dir: str,
    rec: Recorder | None = None,
) -> dict:
    """Run one campaign until ``seconds`` of batches are timed.

    Outputs are checked afterwards against a ``jobs=1`` reference; a
    round that raises ends the run and counts as one failed unit.
    """
    import asyncio

    loop = CampaignLoop(seconds, t0, out_dir, rec)
    service = campaign_service(seed, jobs, out_dir, progress=loop)
    loop.service = service
    if rec is not None:
        rec.set_unit(0)
    units = loop.units
    try:
        asyncio.run(service.run())
    except Exception as exc:  # noqa: BLE001 - a raising round is data
        units.append(
            {
                "index": len(units),
                "start": loop.start,
                "end": clock(),
                "trials": 0,
                "error": f"raised {type(exc).__name__}: {exc}",
            }
        )
    return {
        "setup_s": loop.setup_s,
        "setup_rss_mb": loop.setup_rss_mb,
        "units": units,
    }


def campaign_batches(out_dir: str) -> dict[int, str]:
    """Batch index -> its fingerprint lines and canonical ledger record.

    The two outputs the campaign's determinism contract covers: the
    fingerprint JSONL byte for byte, and each ledger record without
    its volatile ``ts`` and ``env``.
    """
    from repro.obs.ledger import canonical_record

    paths = campaign_paths(out_dir)
    lines: dict[int, list[str]] = {}
    with open(paths["fingerprints_path"], encoding="utf-8") as handle:
        for line in handle:
            lines.setdefault(json.loads(line)["batch"], []).append(line)
    batches: dict[int, str] = {}
    with open(paths["ledger_path"], encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            index = record["run"]["batch_index"]
            batches[index] = "".join(lines.get(index, ())) + json.dumps(
                canonical_record(record), sort_keys=True
            )
    return batches
