"""Reporting for the cross-test run: the §8.2 results.

Produces the same shape of output as the paper's artifact: per-group,
per-oracle failure lists (``ss_difft``, ``sh_wr``, ``hs_eh``, ...), the
set of distinct discrepancies found, and the five problem-category
counts of §8.2.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from functools import partial

from repro.crosstest.catalog import CATALOG, CATEGORY_MEMBERS, Discrepancy
from repro.crosstest.classify import Evidence, classify_trials
from repro.crosstest.executor import WorkerPoolHandle, run_trials
from repro.crosstest.fingerprint import FingerprintHit, run_fingerprints
from repro.crosstest.harness import CrossTester, Outcome, Trial
from repro.crosstest.oracles import (
    OracleFailure,
    RobustnessVerdict,
    all_failures,
    fault_robustness,
)
from repro.crosstest.plans import ALL_PLANS, FORMATS
from repro.crosstest.values import TestInput
from repro.faults.core import InjectionRecord
from repro.faults.plan import FaultPlan
from repro.tracing.core import Span, Tracer

__all__ = ["CrossTestReport", "FaultReport", "run_crosstest"]

#: classification order used everywhere a fault report renders
_CLASSIFICATIONS = ("masked", "gracefully_failed", "mis_handled")


@dataclass
class FaultReport:
    """The robustness side of a fault-injected run.

    Everything in here is deterministic for a fixed (plan, seed): the
    injection schedule is a pure hash and the verdicts are pure
    functions of (records, outcome, baseline) — so two runs of the same
    campaign produce byte-identical fault reports, which is what the CI
    chaos job asserts with a plain diff.
    """

    plan: FaultPlan
    seed: int
    #: global trial index -> fired injections (only injected trials)
    injections: dict[int, tuple[InjectionRecord, ...]] = field(
        default_factory=dict
    )
    verdicts: dict[int, RobustnessVerdict] = field(default_factory=dict)
    #: global trial index -> "plan/fmt/input_id" label
    trial_keys: dict[int, str] = field(default_factory=dict)

    @property
    def injected_trials(self) -> int:
        return len(self.verdicts)

    def counts(self) -> dict[str, int]:
        out = {name: 0 for name in _CLASSIFICATIONS}
        for verdict in self.verdicts.values():
            out[verdict.classification] += 1
        return out

    def mode_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for verdict in self.verdicts.values():
            out[verdict.mode] = out.get(verdict.mode, 0) + 1
        return dict(sorted(out.items()))

    def mis_handled(self) -> list[int]:
        return sorted(
            index
            for index, verdict in self.verdicts.items()
            if verdict.classification == "mis_handled"
        )

    def to_json(self) -> dict:
        return {
            "plan": self.plan.to_json(),
            "seed": self.seed,
            "injected_trials": self.injected_trials,
            "classifications": self.counts(),
            "modes": self.mode_counts(),
            "trials": [
                {
                    "index": index,
                    "trial": self.trial_keys.get(index, ""),
                    "injections": [
                        record.to_json()
                        for record in self.injections.get(index, ())
                    ],
                    **self.verdicts[index].to_json(),
                }
                for index in sorted(self.verdicts)
            ],
        }

    def summary_lines(self) -> list[str]:
        counts = self.counts()
        lines = [
            f"fault plan: {self.plan.name} (seed={self.seed}), "
            f"injected trials: {self.injected_trials}",
            "robustness: "
            + ", ".join(
                f"{name}={counts[name]}" for name in _CLASSIFICATIONS
            ),
        ]
        modes = self.mode_counts()
        if modes:
            lines.append(
                "modes: "
                + ", ".join(
                    f"{mode}={count}" for mode, count in modes.items()
                )
            )
        for index in self.mis_handled():
            verdict = self.verdicts[index]
            label = self.trial_keys.get(index, str(index))
            lines.append(
                f"  MIS-HANDLED {label}: [{verdict.mode}] {verdict.detail}"
            )
        return lines


_GROUP_SHORT = {"spark_e2e": "ss", "spark_hive": "sh", "hive_spark": "hs"}


@dataclass
class CrossTestReport:
    trials: list[Trial]
    failures: dict[str, list[OracleFailure]]
    evidence: dict[int, Evidence]
    #: per-trial span trees, keyed by position in ``trials`` — only
    #: populated when the run was traced. Never feeds ``to_json`` or
    #: ``summary_lines``, so the rendered report is byte-identical with
    #: tracing on or off.
    traces: dict[int, tuple[Span, ...]] | None = None
    #: spans from the oracle/classification phase of a traced run
    oracle_spans: tuple[Span, ...] = ()
    #: robustness results of a fault-injected run — ``None`` for plain
    #: runs, so empty-plan reports stay byte-identical to pre-fault ones
    faults: "FaultReport | None" = None

    # -- derived views ----------------------------------------------------

    @property
    def found_numbers(self) -> set[int]:
        return {n for n, ev in self.evidence.items() if ev.found}

    @property
    def found(self) -> list[Discrepancy]:
        return [d for d in CATALOG if d.number in self.found_numbers]

    def failures_by_log(self) -> dict[str, list[OracleFailure]]:
        """Failures keyed the way the paper's artifact names its logs,
        e.g. ``ss_difft``, ``sh_wr``, ``hs_eh``. Plans outside the three
        built-in groups keep their raw group name as the prefix."""
        logs: dict[str, list[OracleFailure]] = {}
        for oracle, failures in self.failures.items():
            for failure in failures:
                short = _GROUP_SHORT.get(failure.group, failure.group)
                logs.setdefault(f"{short}_{oracle}", []).append(failure)
        return logs

    def category_counts_found(self) -> dict[str, int]:
        """How many *found* discrepancies fall in each §8.2 category."""
        return {
            name: len(members & self.found_numbers)
            for name, members in CATEGORY_MEMBERS.items()
        }

    def fingerprints(self, conf: str = "") -> dict[str, FingerprintHit]:
        """Mechanism fingerprints of this run's oracle failures.

        The same ``{key: hit}`` mapping a fuzz campaign collects,
        computed from the already-evaluated failures — the feed the
        campaign ledger records so co-occurrence analytics can group
        plain §8 runs and fuzz runs through one vocabulary. ``conf`` is
        the deployment-conf label the run executed under
        (:func:`~repro.crosstest.fingerprint.conf_label`).
        """
        return run_fingerprints(self.trials, self.failures, conf)

    def to_json(self) -> dict:
        payload = {
            "trials": len(self.trials),
            "failures": {
                log: [
                    {
                        "input": f.input_id,
                        "fmt": f.fmt,
                        "plans": list(f.plans),
                        "detail": f.detail,
                    }
                    for f in failures
                ]
                for log, failures in sorted(self.failures_by_log().items())
            },
            "found_discrepancies": sorted(self.found_numbers),
            "category_counts": self.category_counts_found(),
        }
        if self.faults is not None:
            payload["fault_robustness"] = self.faults.to_json()
        return payload

    # -- traces -----------------------------------------------------------

    def discrepancy_trace(self, number: int) -> list[Span]:
        """Every span recorded for the trials behind one discrepancy.

        The witness trials alone can be one-sided (e.g. a discrepancy
        whose witnesses all fail at ``create`` never reaches a read), so
        the trace covers *every* trial that shares the first witness's
        input — the full differential bucket, writer side and reader
        side, across all plans and formats.
        """
        if self.traces is None:
            return []
        witness = self.evidence.get(number)
        if witness is None or not witness.trials:
            return []
        input_id = witness.trials[0].test_input.input_id
        spans: list[Span] = []
        for index, trial in enumerate(self.trials):
            if trial.test_input.input_id == input_id:
                spans.extend(self.traces.get(index, ()))
        return spans

    def discrepancy_traces(self) -> dict[int, list[Span]]:
        """``{discrepancy number: spans}`` for every found discrepancy."""
        return {
            number: self.discrepancy_trace(number)
            for number in sorted(self.found_numbers)
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"trials run: {len(self.trials)}",
            "oracle failures: "
            + ", ".join(
                f"{log}={len(fails)}"
                for log, fails in sorted(self.failures_by_log().items())
            ),
            f"distinct discrepancies found: {len(self.found_numbers)}/15",
        ]
        for entry in self.found:
            lines.append(f"  #{entry.number:>2} [{entry.jira}] {entry.title}")
        lines.append("problem categories (found / paper):")
        paper = {name: len(members) for name, members in CATEGORY_MEMBERS.items()}
        for name, count in self.category_counts_found().items():
            lines.append(f"  {name}: {count}/{paper[name]}")
        if self.faults is not None:
            lines.extend(self.faults.summary_lines())
        return lines


@dataclass(frozen=True)
class InputAnalysis:
    """One input's oracle failures, catalog evidence and fault verdicts,
    computed in the worker that ran its trials (:func:`_analyze_input`)."""

    #: ``all_failures`` over the input's trials
    failures: dict[str, list[OracleFailure]]
    #: ``"wr"``/``"eh"`` -> the cell (plan × format position) of each
    #: of that oracle's failures, which judge one trial each
    cells: dict[str, tuple[int, ...]]
    #: catalog number -> cells of the trials ``classify_trials``
    #: matched, in the matcher's order (only numbers with a match)
    evidence: dict[int, tuple[int, ...]]
    #: the oracle spans when the run was traced, else empty
    spans: tuple[Span, ...]
    #: cell -> the injections its trial fired (only cells that fired)
    injections: dict[int, tuple[InjectionRecord, ...]]
    #: cell -> the robustness verdict of each cell in ``injections``
    verdicts: dict[int, RobustnessVerdict]


def _analyze_input(
    conf_overrides: dict[str, object],
    tracing: bool,
    trials: list[Trial],
    injections: list[tuple[InjectionRecord, ...]] | None,
) -> InputAnalysis:
    """Judge one input's trials (every plan × format, in order).

    :func:`run_crosstest` binds the run's ``conf_overrides`` and
    ``tracing`` with :func:`functools.partial`, and the executor calls
    the result in the worker that ran the trials (see
    :func:`~repro.crosstest.executor.run_shard`), so it must pickle by
    reference. WR and EH judge one trial, Diff and classification
    bucket by input id, and the robustness oracle judges one trial
    against its own fault-free rerun, so one input's trials hold all
    they look at.

    Under a fault plan (``injections`` given), each cell that fired an
    injection re-runs fault-free through :func:`run_trials` on this
    worker's pooled deployments, and :func:`fault_robustness` judges it
    against that baseline. Under ``tracing`` the oracles,
    classification and robustness verdicts run under their own tracer,
    trace id ``crosstest/oracles/<input id>``, and their spans ride home
    on the result. The reruns run before it opens, so their harness and
    engine spans stay out of the oracle trace.
    """
    injected = {
        cell: records
        for cell, records in enumerate(injections or ())
        if records
    }
    baselines: dict[int, Outcome] = {}
    if injected:
        specs = [
            (trials[cell].plan, trials[cell].fmt, trials[cell].test_input)
            for cell in injected
        ]
        baselines = dict(zip(injected, run_trials(specs, conf_overrides)))
    tracer = None
    if tracing:
        tracer = Tracer(
            trace_id=f"crosstest/oracles/{trials[0].test_input.input_id}"
        )
    verdicts: dict[int, RobustnessVerdict] = {}
    with tracer if tracer is not None else contextlib.nullcontext():
        failures = all_failures(trials)
        evidence = classify_trials(trials)
        if injected:
            verdicts = fault_robustness(trials, injected, baselines)
    cell_of = {id(trial): cell for cell, trial in enumerate(trials)}
    return InputAnalysis(
        failures=failures,
        cells={
            oracle: _failure_cells(trials, failures[oracle])
            for oracle in ("wr", "eh")
        },
        evidence={
            number: tuple(cell_of[id(trial)] for trial in found.trials)
            for number, found in evidence.items()
            if found.trials
        },
        spans=tuple(tracer.finished) if tracer is not None else (),
        injections=injected,
        verdicts=verdicts,
    )


def _failure_cells(
    trials: list[Trial], failures: list[OracleFailure]
) -> tuple[int, ...]:
    """The cell of each one-trial failure: the oracle yields at most one
    per trial, in trial order, so each failure belongs to the next trial
    of its plan and format."""
    cells: list[int] = []
    cell = 0
    for failure in failures:
        while (trials[cell].plan.name, trials[cell].fmt) != (
            failure.plans[0],
            failure.fmt,
        ):
            cell += 1
        cells.append(cell)
        cell += 1
    return tuple(cells)


def _merge_analyses(
    trials: list[Trial], analyses: dict[int, InputAnalysis]
) -> tuple[dict[str, list[OracleFailure]], dict[int, Evidence]]:
    """What ``all_failures(trials)`` and ``classify_trials(trials)``
    return over the whole run, rebuilt from its inputs' analyses.

    ``trials`` is the run's plan → format → input list and ``analyses``
    is keyed by input position. WR and EH failures come back in trial
    order. Diff failures come back bucket by bucket, as
    :func:`~repro.crosstest.oracles.difft_failures` walks them: every
    plan-axis bucket sorted by ``(group, fmt, input_id)``, then every
    format-axis bucket by ``(group, plan, input_id)``, each bucket in
    its worker's order. Evidence lists inputs in position order, and
    each input's matches in the matcher's order, as the report's own
    ``Trial`` objects.
    """
    run_inputs = len(analyses)
    ordered = [analyses[position] for position in range(run_inputs)]
    failures: dict[str, list[OracleFailure]] = {}
    for oracle in ("wr", "eh"):
        by_trial = {
            cell * run_inputs + position: failure
            for position, analysis in enumerate(ordered)
            for cell, failure in zip(
                analysis.cells[oracle], analysis.failures[oracle]
            )
        }
        failures[oracle] = [by_trial[index] for index in sorted(by_trial)]
    difft = [
        failure
        for analysis in ordered
        for failure in analysis.failures["difft"]
    ]
    failures["difft"] = sorted(
        (failure for failure in difft if failure.axis == "plan"),
        key=lambda f: (f.group, f.fmt, f.input_id),
    ) + sorted(
        (failure for failure in difft if failure.axis == "fmt"),
        key=lambda f: (f.group, f.plans[0], f.input_id),
    )
    evidence = {entry.number: Evidence(entry.number) for entry in CATALOG}
    for position, analysis in enumerate(ordered):
        for number, cells in analysis.evidence.items():
            evidence[number].trials.extend(
                trials[cell * run_inputs + position] for cell in cells
            )
    return failures, evidence


def _merge_faults(
    trials: list[Trial],
    analyses: dict[int, InputAnalysis],
    plan: FaultPlan,
    seed: int,
) -> FaultReport:
    """The run's :class:`FaultReport`, rebuilt from its inputs' analyses.

    Each input's injections and verdicts are keyed by cell, and the
    trial at cell ``c`` of the input at position ``p`` sits at index
    ``c * len(analyses) + p`` of the run's plan → format → input list,
    as WR and EH failures do in :func:`_merge_analyses`. Entries come
    back in index order.
    """
    run_inputs = len(analyses)
    report = FaultReport(plan=plan, seed=seed)
    located = sorted(
        (cell * run_inputs + position, position, cell)
        for position, analysis in analyses.items()
        for cell in analysis.verdicts
    )
    for index, position, cell in located:
        trial = trials[index]
        report.injections[index] = analyses[position].injections[cell]
        report.verdicts[index] = analyses[position].verdicts[cell]
        report.trial_keys[index] = (
            f"{trial.plan.name}/{trial.fmt}/{trial.test_input.input_id}"
        )
    return report


def run_crosstest(
    inputs: list[TestInput] | None = None,
    plans=ALL_PLANS,
    formats=FORMATS,
    conf_overrides: dict[str, object] | None = None,
    *,
    jobs: int | None = 1,
    pool: str = "auto",
    metrics=None,
    progress=None,
    tracing: bool = False,
    fault_plan: FaultPlan | None = None,
    fault_seed: int = 0,
    batch: bool = True,
    pool_handle: WorkerPoolHandle | None = None,
) -> CrossTestReport:
    """Run the full §8 pipeline: harness → oracles → classification.

    ``jobs`` selects the execution engine: 1 (default) is the original
    sequential loop, >1 or ``None`` (auto-size) runs the matrix's
    shards on a worker pool. Either way each input is judged where its
    trials ran (:func:`_analyze_input`), and this function only merges:
    the oracles and classification into exactly what the two passes
    return over the whole trial list, the fault verdicts into a
    :class:`FaultReport` by trial index. Input ids must be unique (a
    repeated one raises ``ValueError``): the oracles bucket by input
    id. The resulting report is identical at every ``jobs`` — tracing
    included: ``tracing=True`` attaches per-trial span trees (plus the
    oracle spans) to the report without touching its rendered content.

    With a non-empty ``fault_plan``, trials run under deterministic
    fault injection; in the worker that ran them, each injected trial
    is re-run fault-free against that worker's pooled deployments to
    obtain its baseline, and the fault-robustness oracle judges it
    there. The verdicts come home as a :class:`FaultReport` on the
    result. An empty or absent plan leaves the report byte-identical
    to a plain run.

    Every trial runs through the executor's one lane runner. ``batch``
    (the default) lets same-type trials share a lane; traced or
    fault-injected trials always run as lanes of one, and the rendered
    report is byte-identical either way. ``pool_handle`` names a
    caller's persistent worker pool to run on (see
    :func:`~repro.crosstest.executor.execute`).
    """
    tester = CrossTester(
        inputs=inputs,
        plans=plans,
        formats=formats,
        conf_overrides=conf_overrides,
    )
    injecting = fault_plan is not None and not fault_plan.empty
    trace_sink: dict[int, tuple[Span, ...]] | None = {} if tracing else None
    analyses: dict[int, InputAnalysis] = {}
    trials = tester.run(
        jobs=jobs,
        pool=pool,
        metrics=metrics,
        progress=progress,
        trace_sink=trace_sink,
        fault_plan=fault_plan if injecting else None,
        fault_seed=fault_seed,
        batch=batch,
        pool_handle=pool_handle,
        analyze=partial(_analyze_input, tester.conf_overrides, tracing),
        analysis_sink=analyses,
    )
    failures, evidence = _merge_analyses(trials, analyses)
    faults = None
    if injecting and fault_plan is not None:
        faults = _merge_faults(trials, analyses, fault_plan, fault_seed)
    return CrossTestReport(
        trials=trials,
        failures=failures,
        evidence=evidence,
        traces=trace_sink,
        oracle_spans=tuple(
            span
            for position in range(len(analyses))
            for span in analyses[position].spans
        ),
        faults=faults,
    )
