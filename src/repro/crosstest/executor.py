"""Shardable, parallel execution engine for the §8 trial matrix.

The cross-test hot path is 10,128 independent trials. This module cuts
the matrix *by input*: a shard is one lane group under every plan ×
format (:func:`build_shards`). Shards run either inline (``jobs=1``,
the sequential semantics) or on a ``concurrent.futures`` pool (threads
or processes, auto-sized).

A shard built with shared lanes runs its cells in *writer groups*
(:func:`_run_lane`): the cells that share a ``(plan.writer, fmt)``
share one deployment lease, one ``CREATE TABLE`` and one write pass of
the shard's inputs, then each plan's reader scans the table once. A
shard built without (traced, fault-injected and ``batch=False`` runs)
runs one isolated trial per cell — a *lane of one* — so each trial
keeps its own tracer and fault injector.

Because a shard holds every trial of its inputs, per-input work runs in
the worker that ran the trials: given ``analyze``, :func:`run_shard`
calls it once per input on that input's trials (the §8 oracles,
classification and, under a fault plan, the fault-free reruns and
robustness verdicts, for every §8, chaos and fuzz-round pass), and only
its result ships home.

Two invariants hold regardless of scheduling:

* **Byte-identical results.** Each shard knows its inputs' positions in
  the run, and the parent puts every trial back at its place in the
  plan → format → input order the sequential loop uses, so the
  returned ``Trial`` list is identical no matter how many workers ran
  or in which order they finished.
* **Deployment isolation.** Each writer group and each isolated trial
  starts on a pristine deployment. Within a group only reads follow
  the shared write, and a read that moves the catalog sends the
  group's remaining readers to isolated trials. Deployments are
  *pooled*: a leased deployment is reset (trial table dropped, data
  directory deleted) before reuse, and discarded the moment a reset
  fails.

Telemetry rides along via :class:`CrossTestMetrics` — per-stage error
counters plus per-plan and per-format latency histograms — so a
10k-trial campaign is observable instead of a silent blackout.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, TypeVar

from repro.crosstest.harness import (
    Deployment,
    Outcome,
    Trial,
    run_lane_on,
    run_trial_on,
)
from repro.crosstest.plans import Plan
from repro.crosstest.values import TestInput
from repro.faults.core import FaultInjector, InjectionRecord
from repro.faults.plan import FaultPlan
from repro.metrics import Histogram, MetricsRegistry
from repro.tracing.core import Span, Tracer
from repro.tracing.export import decode_span_batches, encode_span_batches

__all__ = [
    "Shard",
    "ShardResult",
    "DeploymentPool",
    "CrossTestMetrics",
    "WorkerPoolHandle",
    "build_shards",
    "run_shard",
    "worker_pool",
    "resolve_jobs",
    "resolve_pool",
    "execute",
    "run_trials",
]

T = TypeVar("T")

#: Most inputs in one shard. A shard is one column type's inputs (a
#: lane group) under all 8 plans x 3 formats, so the curated corpus's 33
#: types, the largest holding 70 inputs, cut into 45 shards of 1 to 24
#: inputs: one lane of up to 24 inputs per writer group, and each
#: worker compiles only the plans of the types it runs.
DEFAULT_SHARD_INPUTS = 24


@dataclass(frozen=True)
class Shard:
    """One lane group under every (plan, fmt) cell: a unit of work.

    With shared ``lanes`` the inputs are up to
    :data:`DEFAULT_SHARD_INPUTS` inputs of one column type, and the
    cells that share a writer and format run them as one writer group;
    without (traced, fault-injected or unbatched runs) the shard is a
    single input and every cell an isolated trial. Either way the
    shard holds every trial of its inputs, in cell-major order: for
    each cell, the inputs in run order.
    """

    index: int
    #: ``(plan, fmt)`` in plan → format order, the same for every shard
    cells: tuple[tuple[Plan, str], ...]
    inputs: tuple[TestInput, ...]
    #: each input's position in the run's input list
    positions: tuple[int, ...]
    #: whether cells that share a writer and format share one lane
    lanes: bool

    def __len__(self) -> int:
        return len(self.cells) * len(self.inputs)

    def trial_indices(self, run_inputs: int) -> list[int]:
        """Where each of this shard's trials sits in the run's
        plan → format → input order, for a run of ``run_inputs``."""
        return [
            cell * run_inputs + position
            for cell in range(len(self.cells))
            for position in self.positions
        ]


#: what a worker runs over one input's trials (in cell order) and their
#: fired injections (one tuple per trial, or ``None`` when no fault plan
#: ran); it must pickle by reference, and so must its return value
Analyze = Callable[
    [list[Trial], list[tuple[InjectionRecord, ...]] | None], object
]


#: ``Outcome`` fields in declaration order — the columnar wire schema a
#: shard ships home instead of per-trial ``Trial`` pickles.
_OUTCOME_FIELDS = (
    "status",
    "stage",
    "error_type",
    "error_message",
    "value",
    "value_type",
    "column_name",
    "row_count",
    "warnings",
)


@dataclass
class ShardResult:
    """What one shard produced, in wire form.

    A worker never echoes its inputs back: the parent already holds the
    shard's cells and ``TestInput`` sequence, so only the
    *observations* ship —

    * ``outcome_columns``: one tuple per :class:`Outcome` field (in
      ``_OUTCOME_FIELDS`` order), each holding that field for every
      trial in shard order. Columnar instead of per-trial dataclass
      tuples, so nothing re-pickles ``Plan``/``TestInput`` objects (and
      their cached parsed types) on the way home.
    * ``durations``: per-trial wall-clock, shard order.
    * ``cache_counts``: the *deltas* this shard contributed to the
      engines' plan-cache counters (and deployment provisioning
      counts) — deltas rather than totals so results aggregate
      correctly when worker processes keep long-lived pools across
      shards.
    * ``spans_blob``: only when the shard was traced — every trial's
      finished spans encoded once per shard via
      :func:`~repro.tracing.export.encode_span_batches`.
    * ``stage_durations``: wall-clock samples per harness stage
      (``create``/``write``/``read``/``reset``), aggregated across the
      shard — the raw feed for the per-stage latency histograms. Not
      per-trial: a lane's create covers many trials at once.
    * ``analyses``: only when the shard ran with ``analyze`` — what it
      returned for each input, in shard order (see :func:`run_shard`).
      Fired fault injections reach the parent only this way, inside
      what ``analyze`` returned.

    :meth:`pack` builds the wire form inside the worker and
    :meth:`to_trials` / :meth:`span_batches` rebuild the rich objects
    parent-side. A traced shard's spans make the encode/decode round
    trip at *every* ``jobs`` setting (including inline ``jobs=1``), so
    exported spans and report bytes cannot depend on ``--jobs``.
    """

    index: int
    outcome_columns: tuple[tuple, ...]
    durations: list[float] = field(default_factory=list)
    cache_counts: dict[str, int] = field(default_factory=dict)
    spans_blob: bytes | None = None
    stage_durations: dict[str, list[float]] = field(default_factory=dict)
    analyses: tuple = ()

    @classmethod
    def pack(
        cls,
        shard: Shard,
        outcomes: list[Outcome],
        durations: list[float],
        cache_counts: dict[str, int],
        traces: list[tuple[Span, ...]] | None,
        stage_times: list[tuple[str, float]] | None = None,
    ) -> "ShardResult":
        """Encode one executed shard into its wire form (worker side)."""
        stage_durations: dict[str, list[float]] = {}
        for stage, seconds in stage_times or ():
            stage_durations.setdefault(stage, []).append(seconds)
        return cls(
            index=shard.index,
            outcome_columns=tuple(
                tuple(getattr(outcome, name) for outcome in outcomes)
                for name in _OUTCOME_FIELDS
            ),
            durations=durations,
            cache_counts=cache_counts,
            spans_blob=(
                encode_span_batches(traces) if traces is not None else None
            ),
            stage_durations=stage_durations,
        )

    def to_trials(self, shard: Shard) -> list[Trial]:
        """Rebuild the shard's trials against the parent-side inputs."""
        return [
            Trial(plan, fmt, test_input, Outcome(*fields))
            for ((plan, fmt), test_input), *fields in zip(
                product(shard.cells, shard.inputs), *self.outcome_columns
            )
        ]

    def span_batches(self) -> list[tuple[Span, ...]] | None:
        """Per-trial finished spans, or ``None`` if tracing was off."""
        if self.spans_blob is None:
            return None
        return decode_span_batches(self.spans_blob)


def build_shards(
    plans,
    formats,
    inputs,
    shard_inputs: int = DEFAULT_SHARD_INPUTS,
    *,
    lanes: bool = True,
) -> list[Shard]:
    """Cut the matrix by input into deterministically ordered shards.

    Every shard covers every plan × format. With ``lanes`` (shared
    lanes), a shard is up to ``shard_inputs`` inputs of one column type,
    the types in first-seen order, a larger type cut into several
    shards; without, every input is a shard of its own. Each
    ``(plan, fmt, input)`` lands in exactly one shard, and the list
    depends only on the arguments, never on ``jobs`` or the pool.

    A matrix with no plans, formats or inputs yields an empty shard
    list — a zero-trial matrix has no work, so it must not fan empty
    shards out to a pool.
    """
    if shard_inputs < 1:
        raise ValueError(f"shard_inputs must be >= 1, got {shard_inputs}")
    inputs = tuple(inputs)
    cells = tuple((plan, fmt) for plan in plans for fmt in formats)
    if not cells:
        return []
    if lanes:
        groups = [
            positions[start : start + shard_inputs]
            for positions in _lane_groups(inputs)
            for start in range(0, len(positions), shard_inputs)
        ]
    else:
        groups = [[position] for position in range(len(inputs))]
    return [
        Shard(
            index=index,
            cells=cells,
            inputs=tuple(inputs[position] for position in positions),
            positions=tuple(positions),
            lanes=lanes,
        )
        for index, positions in enumerate(groups)
    ]


class DeploymentPool:
    """Recycle deployments across trials that cannot observe each other.

    ``lease`` hands out a pristine deployment (fresh, or reset after a
    previous trial); ``release`` resets it and returns it to the pool.
    A deployment whose reset raises is dropped on the floor — the next
    lease simply provisions a new one.

    Pooling is what makes the engines' plan caches effective: a reset
    drops the trial table but keeps the sessions — and with them every
    compiled plan, resolved schema and cast kernel — so the next trial
    re-validates instead of re-analyzing.
    """

    def __init__(self, conf_overrides: dict[str, object] | None = None) -> None:
        self.conf_overrides = dict(conf_overrides or {})
        self._idle: list[Deployment] = []
        self._lock = threading.Lock()
        self.created = 0
        self.reused = 0

    def lease(self) -> Deployment:
        with self._lock:
            if self._idle:
                self.reused += 1
                deployment = self._idle.pop()
            else:
                self.created += 1
                deployment = Deployment(self.conf_overrides)
                deployment.leases = 0
        deployment.leases += 1
        return deployment

    def release(self, deployment: Deployment) -> None:
        try:
            deployment.reset()
        except Exception:  # noqa: BLE001 - a dirty deployment is discarded
            return
        with self._lock:
            self._idle.append(deployment)


#: Worker-global pools keyed by conf overrides: one pool per distinct
#: deployment configuration, shared by every shard a worker (thread or
#: process) executes, so plan caches stay warm across shard boundaries.
_WORKER_POOLS: dict[tuple, DeploymentPool] = {}
_WORKER_POOLS_LOCK = threading.Lock()


def worker_pool(conf_overrides: dict[str, object] | None = None) -> DeploymentPool:
    """The long-lived pool for this worker and these conf overrides."""
    key = tuple(sorted((conf_overrides or {}).items()))
    pool = _WORKER_POOLS.get(key)
    if pool is None:
        with _WORKER_POOLS_LOCK:
            pool = _WORKER_POOLS.setdefault(key, DeploymentPool(conf_overrides))
    return pool


# A no-op, kept only for perfbench/layers.py's _wrap_worker_roots line
# ``executor.prewarm_worker = root("executor.prewarm", ...)``.
def prewarm_worker(*args, **kwargs) -> None:
    pass


def _plan_cache_counts(deployment: Deployment) -> tuple[int, int, int, int]:
    spark = deployment.spark.plan_cache.stats
    hive = deployment.hive.plan_cache.stats
    return (
        spark.hits + hive.hits,
        spark.misses + hive.misses,
        spark.invalidations + hive.invalidations,
        spark.evictions + hive.evictions,
    )


def _retry_counts(deployment: Deployment) -> tuple[int, int, int, int]:
    """Retry-policy counters for this deployment's connectors.

    Read while the deployment is leased (same race-free discipline as
    :func:`_plan_cache_counts`): policy stats live on the connector, one
    connector per deployment.
    """
    stats = deployment.spark.connector.retry.stats
    return (
        stats.attempts,
        stats.faults,
        stats.masked_calls,
        stats.exhausted_calls,
    )


def _new_counts(injecting: bool = False) -> dict[str, int]:
    counts = {
        "plan_cache_hits": 0,
        "plan_cache_misses": 0,
        "plan_cache_invalidations": 0,
        "plan_cache_evictions": 0,
        "deployments_created": 0,
        "deployments_reused": 0,
    }
    if injecting:
        counts.update(
            faults_injected=0,
            faults_timeout=0,
            faults_io_error=0,
            faults_torn_write=0,
            faults_stale_read=0,
            boundary_attempts=0,
            boundary_faults=0,
            boundary_masked_calls=0,
            boundary_exhausted_calls=0,
        )
    return counts


def _leased(
    pool: DeploymentPool,
    counts: dict[str, int],
    stage_times: list[tuple[str, float]] | None,
    run: Callable[..., T],
    *args: object,
) -> T:
    """Return ``run(deployment, *args)`` on a deployment from ``pool``.

    The one place this module leases: it counts the lease as created or
    reused in ``counts``, folds in the plan-cache counters ``run`` moved
    (read while the deployment is exclusively leased, so they are
    race-free even when worker threads share a pool), and releases the
    deployment, sampling the reset for the stage histograms. Reset is
    deliberately untraced (it runs outside the tracer and injector
    contexts so it cannot perturb span trees or fault visit counters) —
    this wall-clock sample is its only telemetry.
    """
    deployment = pool.lease()
    if deployment.leases == 1:
        counts["deployments_created"] += 1
    else:
        counts["deployments_reused"] += 1
    before = _plan_cache_counts(deployment)
    try:
        result = run(deployment, *args)
        after = _plan_cache_counts(deployment)
    finally:
        started = time.perf_counter()
        pool.release(deployment)
        if stage_times is not None:
            stage_times.append(("reset", time.perf_counter() - started))
    counts["plan_cache_hits"] += after[0] - before[0]
    counts["plan_cache_misses"] += after[1] - before[1]
    counts["plan_cache_invalidations"] += after[2] - before[2]
    counts["plan_cache_evictions"] += after[3] - before[3]
    return result


def _lane_groups(inputs: tuple[TestInput, ...]) -> list[list[int]]:
    """Group input positions by column type, first-seen order.

    Every input in a lane shares a ``type_text``, so one ``CREATE
    TABLE`` serves the whole lane. Positions within a group stay in
    input order; groups need not be contiguous.
    """
    groups: dict[str, list[int]] = {}
    for position, test_input in enumerate(inputs):
        groups.setdefault(test_input.type_text, []).append(position)
    return list(groups.values())


def _observed_trial(
    deployment: Deployment,
    plan: Plan,
    fmt: str,
    test_input: TestInput,
    counts: dict[str, int],
    stage_times: list[tuple[str, float]] | None,
    tracer: Tracer | None,
    injector: FaultInjector | None,
) -> Trial:
    """One trial under its own tracer and/or fault injector.

    With an injector, also folds what it fired and the retry-policy
    counters the trial moved into ``counts`` — read while the
    deployment is leased, like the plan-cache counters: policy stats
    live on the connector, one connector per deployment.
    """
    retry_before = _retry_counts(deployment)
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        if injector is not None:
            stack.enter_context(injector)
        trial = run_trial_on(
            deployment, plan, fmt, test_input, stage_times=stage_times
        )
    if injector is not None:
        retry_after = _retry_counts(deployment)
        counts["boundary_attempts"] += retry_after[0] - retry_before[0]
        counts["boundary_faults"] += retry_after[1] - retry_before[1]
        counts["boundary_masked_calls"] += retry_after[2] - retry_before[2]
        counts["boundary_exhausted_calls"] += (
            retry_after[3] - retry_before[3]
        )
        counts["faults_injected"] += len(injector.records)
        for record in injector.records:
            counts[f"faults_{record.kind}"] += 1
    return trial


def _run_trial(
    pool: DeploymentPool,
    plan: Plan,
    fmt: str,
    test_input: TestInput,
    counts: dict[str, int],
    stage_times: list[tuple[str, float]] | None,
    tracer: Tracer | None = None,
    injector: FaultInjector | None = None,
) -> Outcome:
    """One isolated trial (a lane of one) on its own lease.

    Runs :func:`run_trial_on`, under the trial's ``tracer`` and
    ``injector`` when given. Its outcome is authoritative by
    definition, so it never needs the fallback ladder.
    """
    if tracer is None and injector is None:
        trial = _leased(
            pool, counts, stage_times,
            run_trial_on, plan, fmt, test_input, stage_times,
        )
    else:
        trial = _leased(
            pool, counts, stage_times,
            _observed_trial, plan, fmt, test_input,
            counts, stage_times, tracer, injector,
        )
    return trial.outcome


def _run_lane(
    pool: DeploymentPool,
    plans: tuple[Plan, ...],
    fmt: str,
    inputs: tuple[TestInput, ...],
    counts: dict[str, int],
    stage_times: list[tuple[str, float]] | None,
    multirow: bool = True,
) -> list[list[Outcome]]:
    """Run one writer group on its own lease; outcomes per plan.

    ``plans`` share one writer. :func:`run_lane_on` creates and writes
    the table once and scans it once per reader. When it reports
    ambiguity, the *stage* picks the fallback: a multi-row ``"write"``
    failure retries the whole group with single-row statements (exact
    attribution, same shared table, on a fresh lease — release resets
    whatever the failed attempt left); a plan's ``"read"``,
    ``"count"`` or ``"catalog"`` ambiguity means its shared scan cannot
    attribute, so that plan alone fans out into isolated trials
    (:func:`_run_trial`) while the other plans keep their scans. At
    most one retry, then isolation: termination is structural.
    """
    results = _leased(
        pool, counts, stage_times,
        run_lane_on, plans, fmt, inputs, multirow, stage_times,
    )
    if isinstance(results, str):
        # only a multi-row statement reports "write"; singles attribute
        return _run_lane(
            pool, plans, fmt, inputs, counts, stage_times, multirow=False
        )
    return [
        outcomes
        if not isinstance(outcomes, str)
        else [
            _run_trial(pool, plan, fmt, test_input, counts, stage_times)
            for test_input in inputs
        ]
        for plan, outcomes in zip(plans, results)
    ]


def run_shard(
    shard: Shard,
    conf_overrides: dict[str, object] | None = None,
    tracing: bool = False,
    fault_plan: FaultPlan | None = None,
    fault_seed: int = 0,
    analyze: Analyze | None = None,
) -> ShardResult:
    """Execute one shard and analyze it where it ran.

    Deployments come from the worker-global pool for these conf
    overrides. A shard built with shared ``lanes`` groups its cells by
    ``(plan.writer, fmt)``, first-seen order, and runs each group as one
    writer group (see :func:`_run_lane`): one create and one write pass
    of the shard's inputs, then one scan per plan's reader, each plan's
    outcomes put back at its cells. Per-trial durations are each
    group's wall-clock split evenly across its plans × inputs — the
    plan/format histograms keep covering every trial, they just report
    amortized cost, which is the honest number under sharing.

    A shard built without runs one isolated trial per cell and input.
    With ``tracing``, each runs under its own
    :class:`~repro.tracing.Tracer` (trace id ``plan/fmt/input_id``),
    and the finished spans ride back on ``ShardResult.spans_blob``.
    Activation happens here, inside the worker, so tracing survives
    thread and process pools alike.

    With a non-empty ``fault_plan``, each trial likewise runs under its
    own :class:`~repro.faults.FaultInjector` keyed by the same stable
    trial identity, so the fault schedule is a pure function of
    ``(plan, seed, trial)`` — independent of worker count, scheduling,
    and everything the worker ran before.

    Traced runs promise one span tree per trial, and fault schedules
    key on per-trial boundary visit counts; a shared lane would change
    both, so a traced or fault-injected shard must be built without
    lanes (:func:`build_shards` cuts them that way).

    With ``analyze``, the worker then calls ``analyze(trials,
    injections)`` once per input, on that input's trials in plan →
    format order and the injections each trial fired (``None`` when no
    plan ran), and the results ride home on ``ShardResult.analyses``.
    """
    injecting = fault_plan is not None and not fault_plan.empty
    if (tracing or injecting) and shard.lanes:
        raise ValueError(
            "a traced or fault-injected shard runs isolated trials; "
            "build it with lanes=False"
        )
    clock = time.perf_counter
    pool = worker_pool(conf_overrides)
    counts = _new_counts(injecting)
    stage_times: list[tuple[str, float]] = []
    width = len(shard.inputs)
    outcomes: list[Outcome] = []
    durations: list[float] = []
    traces: list[tuple[Span, ...]] | None = [] if tracing else None
    injections: list[tuple[InjectionRecord, ...]] | None = (
        [] if injecting else None
    )
    if shard.lanes:
        groups: dict[tuple[str, str], list[int]] = {}
        for cell, (plan, fmt) in enumerate(shard.cells):
            groups.setdefault((plan.writer, fmt), []).append(cell)
        outcomes = [None] * len(shard)  # type: ignore[list-item]
        durations = [0.0] * len(shard)
        for (_, fmt), cells in groups.items():
            plans = tuple(shard.cells[cell][0] for cell in cells)
            started = clock()
            per_plan = _run_lane(
                pool, plans, fmt, shard.inputs, counts, stage_times
            )
            share = (clock() - started) / (len(cells) * width)
            for cell, plan_outcomes in zip(cells, per_plan):
                outcomes[cell * width : (cell + 1) * width] = plan_outcomes
                durations[cell * width : (cell + 1) * width] = [share] * width
    else:
        for plan, fmt in shard.cells:
            for test_input in shard.inputs:
                tracer: Tracer | None = None
                injector: FaultInjector | None = None
                trial_key = f"{plan.name}/{fmt}/{test_input.input_id}"
                if tracing:
                    tracer = Tracer(trace_id=trial_key)
                if injecting and fault_plan is not None:
                    injector = FaultInjector(fault_plan, fault_seed, trial_key)
                started = clock()
                outcomes.append(
                    _run_trial(
                        pool, plan, fmt, test_input, counts, stage_times,
                        tracer, injector,
                    )
                )
                durations.append(clock() - started)
                if traces is not None and tracer is not None:
                    traces.append(tuple(tracer.finished))
                if injections is not None and injector is not None:
                    injections.append(tuple(injector.records))
    result = ShardResult.pack(
        shard, outcomes, durations, counts, traces, stage_times=stage_times
    )
    if analyze is not None:
        trials = [
            Trial(plan, fmt, test_input, outcome)
            for ((plan, fmt), test_input), outcome in zip(
                product(shard.cells, shard.inputs), outcomes
            )
        ]
        result.analyses = tuple(
            analyze(
                trials[column::width],
                None if injections is None else injections[column::width],
            )
            for column in range(width)
        )
    return result


class CrossTestMetrics:
    """Run telemetry: stage counters + latency histograms.

    Backed by :class:`repro.metrics.MetricsRegistry`, the same substrate
    the monitoring scenarios scrape, so cross-test campaigns export
    through the standard metric surface.

    ``source`` labels which workload the counters describe: the §8
    matrix (``"matrix"``, registry system ``crosstest``) or a fuzz
    campaign (``"fuzz"``, registry system ``crosstest.fuzz``). Fuzz
    trials therefore never fold into the paper-replication totals — a
    scrape that wants the §8 stage-error counts reads ``crosstest``,
    not ``crosstest.fuzz``.
    """

    STAGES = ("create", "write", "read")

    def __init__(self, source: str = "matrix") -> None:
        self.source = source
        system = "crosstest" if source == "matrix" else f"crosstest.{source}"
        self.registry = MetricsRegistry(system)
        self.trials_total = self.registry.counter(
            "trials_total", "trials executed"
        )
        self.trials_ok = self.registry.counter(
            "trials_ok", "trials that completed the write-read round trip"
        )
        self.stage_errors = {
            stage: self.registry.counter(
                f"errors_{stage}", f"trials that failed at the {stage} stage"
            )
            for stage in self.STAGES
        }
        self.shards_done = self.registry.counter(
            "shards_done", "shards completed"
        )
        self.cache_counters = {
            name: self.registry.counter(name, description)
            for name, description in (
                ("plan_cache_hits", "plan-cache hits across both engines"),
                ("plan_cache_misses", "plan-cache misses across both engines"),
                (
                    "plan_cache_invalidations",
                    "plans invalidated by catalog movement",
                ),
                ("plan_cache_evictions", "plans evicted by the LRU bound"),
                ("deployments_created", "deployments provisioned"),
                ("deployments_reused", "deployments recycled from a pool"),
            )
        }
        self.fault_counters = {
            name: self.registry.counter(name, description)
            for name, description in (
                ("faults_injected", "boundary faults injected"),
                ("faults_timeout", "injected peer timeouts"),
                ("faults_io_error", "injected transient I/O errors"),
                ("faults_torn_write", "injected torn segment writes"),
                ("faults_stale_read", "injected stale metastore reads"),
                ("boundary_attempts", "boundary call attempts (retries incl.)"),
                ("boundary_faults", "transient faults seen by retry policies"),
                (
                    "boundary_masked_calls",
                    "boundary calls that succeeded after retries",
                ),
                (
                    "boundary_exhausted_calls",
                    "boundary calls that exhausted their retry budget",
                ),
            )
        }

    def _latency(self, kind: str, name: str) -> Histogram:
        return self.registry.histogram(
            f"latency_{kind}_{name}",
            description=f"trial latency for {kind} {name} (seconds)",
        )

    def record_shard(self, result: ShardResult, trials: list[Trial]) -> None:
        """Fold one shard in; ``trials`` is ``result.to_trials(shard)``,
        passed in because the caller already rebuilt them."""
        plan = fmt = None
        for trial, duration in zip(trials, result.durations):
            self.trials_total.increment()
            if trial.outcome.ok:
                self.trials_ok.increment()
            elif trial.outcome.stage in self.stage_errors:
                self.stage_errors[trial.outcome.stage].increment()
            # a shard's trials walk its cells in order
            if trial.plan is not plan:
                plan = trial.plan
                plan_hist = self._latency("plan", plan.name)
            if trial.fmt is not fmt:
                fmt = trial.fmt
                fmt_hist = self._latency("fmt", fmt)
            plan_hist.observe(duration)
            fmt_hist.observe(duration)
        for stage, samples in result.stage_durations.items():
            stage_hist = self._latency("stage", stage)
            for seconds in samples:
                stage_hist.observe(seconds)
        for name, delta in result.cache_counts.items():
            counter = self.cache_counters.get(name) or self.fault_counters.get(
                name
            )
            if counter is not None and delta > 0:
                counter.increment(delta)
        self.shards_done.increment()

    # -- rendering -----------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """The registry's public snapshot — the feed for ``to_json``,
        the campaign ledger's ``env.metrics`` section, and the status
        server's ``/metrics`` endpoint."""
        return self.registry.snapshot()

    def to_json(self) -> dict:
        """Full snapshot: every metric plus the tracked-cache registry.

        Histograms export their bucket snapshots (so quantiles can be
        recomputed offline); counters and gauges export their value.
        """
        from repro.metrics.caches import cache_info_snapshot

        metrics: dict[str, object] = {}
        for name, entry in self.snapshot().items():
            if entry["kind"] == "histogram":
                metrics[name] = {
                    key: entry[key]
                    for key in ("count", "sum", "buckets", "overflow")
                }
            else:
                metrics[name] = entry["value"]
        return {
            "system": self.registry.system,
            "metrics": metrics,
            "caches": cache_info_snapshot(),
        }

    def error_summary(self) -> str:
        return ", ".join(
            f"{stage}={int(self.stage_errors[stage].value)}"
            for stage in self.STAGES
        )

    def cache_summary(self) -> str:
        hits = int(self.cache_counters["plan_cache_hits"].value)
        misses = int(self.cache_counters["plan_cache_misses"].value)
        invalidations = int(self.cache_counters["plan_cache_invalidations"].value)
        created = int(self.cache_counters["deployments_created"].value)
        reused = int(self.cache_counters["deployments_reused"].value)
        lookups = hits + misses
        rate = hits / lookups if lookups else 0.0
        return (
            f"plan cache: hits={hits} misses={misses} "
            f"invalidations={invalidations} hit_rate={rate:.1%}; "
            f"deployments: created={created} reused={reused}"
        )

    def fault_summary(self) -> str:
        injected = int(self.fault_counters["faults_injected"].value)
        masked = int(self.fault_counters["boundary_masked_calls"].value)
        exhausted = int(
            self.fault_counters["boundary_exhausted_calls"].value
        )
        kinds = ", ".join(
            f"{kind}={int(self.fault_counters[f'faults_{kind}'].value)}"
            for kind in ("timeout", "io_error", "torn_write", "stale_read")
        )
        return (
            f"faults: injected={injected} ({kinds}); "
            f"retries: masked={masked} exhausted={exhausted}"
        )

    def summary_lines(self) -> list[str]:
        lines = [
            f"trials: {int(self.trials_total.value)} "
            f"(ok={int(self.trials_ok.value)}, errors: {self.error_summary()})",
            self.cache_summary(),
        ]
        if int(self.fault_counters["faults_injected"].value):
            lines.append(self.fault_summary())
        for name, metric in self.registry.items():
            if not isinstance(metric, Histogram) or not metric.count:
                continue
            lines.append(
                f"{name}: n={metric.count} mean={metric.mean * 1e6:.0f}us "
                f"p50={metric.quantile(0.5) * 1e6:.0f}us "
                f"p99={metric.quantile(0.99) * 1e6:.0f}us"
            )
        return lines


def resolve_jobs(jobs: int | None) -> int:
    """``None``/``0`` auto-sizes to the host's cores; negatives reject."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 1 (or None for auto), got {jobs}")
    return jobs


def resolve_pool(pool: str, jobs: int) -> str:
    """Pick the worker-pool flavour: processes for real parallelism."""
    if pool == "auto":
        return "process" if jobs > 1 else "thread"
    if pool not in ("thread", "process"):
        raise ValueError(f"pool must be auto|thread|process, got {pool!r}")
    return pool


def _make_executor(pool: str, jobs: int) -> Executor:
    if pool == "process":
        return ProcessPoolExecutor(max_workers=jobs)
    return ThreadPoolExecutor(max_workers=jobs)


class WorkerPoolHandle:
    """A long-lived worker pool reused across :func:`execute` calls.

    ``execute`` normally builds a pool per call, whose workers start
    cold, and tears it down on the way out — correct for one-shot
    matrices, ruinous for an always-on campaign that submits a small
    batch every few hundred milliseconds: process workers would pay
    import + parse-cache + deployment-pool cold start on *every* batch.
    A handle owns one executor for its whole lifetime; worker-global
    state (parse LRU caches, deployment pools, compiled plans) then
    persists across batches, which is where the campaign's steady-state
    throughput comes from.

    Worker state can never leak into results: shard outcomes are
    byte-identical whatever a worker ran before, and so are their
    traces with the plan cache off (the jobs/pool identity grid pins
    both), so reusing workers is purely a wall-clock win.

    The handle is lazy (no pool until the first :meth:`executor` call)
    and idempotent to close; it also works as a context manager.
    """

    def __init__(self, jobs: int | None = None, pool: str = "auto") -> None:
        self.jobs = resolve_jobs(jobs)
        self.flavour = resolve_pool(pool, self.jobs)
        self._executor: Executor | None = None

    def executor(self) -> Executor:
        if self._executor is None:
            self._executor = _make_executor(self.flavour, self.jobs)
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPoolHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def execute(
    plans,
    formats,
    inputs,
    conf_overrides: dict[str, object] | None = None,
    *,
    jobs: int | None = 1,
    pool: str = "auto",
    metrics: CrossTestMetrics | None = None,
    progress=None,
    trace_sink: dict[int, tuple[Span, ...]] | None = None,
    fault_plan: FaultPlan | None = None,
    fault_seed: int = 0,
    batch: bool = True,
    pool_handle: "WorkerPoolHandle | None" = None,
    analyze: Analyze | None = None,
    analysis_sink: dict[int, object] | None = None,
) -> list[Trial]:
    """Run the full matrix and return trials in sequential order.

    The matrix is cut by input (:func:`build_shards`) and every shard
    runs through :func:`run_shard`. ``batch`` (the default) lets a
    shard's same-type inputs share one lane per writer group — one
    create and one write pass per ``(writer, fmt)``, then one scan per
    reader. On in-lane ambiguity a group retries once with single-row
    writes, and a plan whose scan cannot attribute falls back to
    isolated trials. Traced, fault-injected and ``batch=False`` runs
    use isolated trials, one input per shard; reports are
    byte-identical either way.

    ``progress``, if given, is called after every shard completes as
    ``progress(done_shards, total_shards, done_trials, total_trials)``.

    ``trace_sink``, if given, switches per-trial tracing on and is
    filled with ``{global trial index: finished spans}`` — the index
    matches the position of the trial in the returned list, at every
    ``jobs``/``pool`` setting. Spans travel home only into it.

    ``fault_plan``/``fault_seed`` switch deterministic fault injection
    on (an empty plan is equivalent to no plan at all). What each
    trial fired goes to ``analyze`` in its worker, and nowhere else.

    ``analyze``, if given, runs in the worker once per input, on that
    input's trials under every plan × format and their fired injections
    (see :func:`run_shard`); ``analysis_sink`` is filled with ``{input
    position: what analyze returned}``. Per-input analysis needs unique
    input ids, so a repeated id raises ``ValueError``.

    A pool built here lives for this call only: its workers start cold
    and warm their parse and plan caches on the shards they run.

    ``pool_handle``, if given (and ``jobs > 1``), submits shards to the
    caller's persistent :class:`WorkerPoolHandle` instead of building
    and tearing down a pool inside this call — the repeated-submission
    path the fuzz scheduler and the always-on campaign service use.
    Its workers stay warm across calls.

    A zero-trial matrix (no plans, no formats, or no inputs) returns
    immediately — no shards, no pool, no progress callbacks.
    """
    jobs = resolve_jobs(jobs)
    inputs = list(inputs)
    if analyze is not None:
        _check_unique_ids(inputs)
    tracing = trace_sink is not None
    if fault_plan is not None and fault_plan.empty:
        fault_plan = None
    # the shard cap is read here, at call time, so tests can shrink it
    shards = build_shards(
        plans,
        formats,
        inputs,
        DEFAULT_SHARD_INPUTS,
        lanes=batch and not tracing and fault_plan is None,
    )
    if not shards:
        return []
    args = (conf_overrides, tracing, fault_plan, fault_seed, analyze)
    run_inputs = len(inputs)
    total_trials = len(shards[0].cells) * run_inputs
    trials: list[Trial | None] = [None] * total_trials
    done_shards = done_trials = 0

    def finish(shard: Shard, result: ShardResult) -> None:
        nonlocal done_shards, done_trials
        shard_trials = result.to_trials(shard)
        indices = shard.trial_indices(run_inputs)
        for index, trial in zip(indices, shard_trials):
            trials[index] = trial
        done_shards += 1
        done_trials += len(shard_trials)
        if metrics is not None:
            metrics.record_shard(result, shard_trials)
        if analysis_sink is not None:
            analysis_sink.update(zip(shard.positions, result.analyses))
        if trace_sink is not None:
            trace_sink.update(zip(indices, result.span_batches()))
        if progress is not None:
            progress(done_shards, len(shards), done_trials, total_trials)

    if jobs == 1:
        # sequential semantics: shards walked in order on the calling
        # thread, deployments pooled so the engines' plan caches carry
        # across trials (results are byte-identical to fresh-per-trial —
        # the pooled-vs-fresh equivalence is pinned by tests).
        for shard in shards:
            finish(shard, run_shard(shard, *args))
    else:

        def drain(workers: Executor) -> None:
            # largest shards first, so no big one starts last
            pending = {
                workers.submit(run_shard, shard, *args): shard
                for shard in sorted(shards, key=len, reverse=True)
            }
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    finish(pending.pop(future), future.result())

        if pool_handle is not None:
            drain(pool_handle.executor())
        else:
            flavour = resolve_pool(pool, jobs)
            with _make_executor(flavour, min(jobs, len(shards))) as workers:
                drain(workers)
    return trials  # type: ignore[return-value]


def _check_unique_ids(inputs: list[TestInput]) -> None:
    """Refuse a repeated input id: Diff and classification bucket by
    ``input_id``, so two inputs sharing one would be judged as one."""
    seen: set[int] = set()
    for test_input in inputs:
        if test_input.input_id in seen:
            raise ValueError(
                f"input id {test_input.input_id} repeats; per-input "
                "analysis needs unique input ids"
            )
        seen.add(test_input.input_id)


def run_trials(
    specs: list[tuple[Plan, str, TestInput]],
    conf_overrides: dict[str, object] | None = None,
) -> list[Outcome]:
    """Run a sparse set of (plan, fmt, input) triples, outcomes in order.

    The pooled path for callers that need a handful of scattered trials
    rather than a full matrix — the fault-free baselines of one input's
    injected trials (:func:`repro.crosstest.report._analyze_input`,
    in the worker that ran them) or :meth:`CrossTester.run_trial`.
    Each triple is an isolated trial (:func:`_run_trial`, as in an
    unshared shard), on a deployment leased from the worker-global pool
    (warm plan caches, reset on release, never thrown away).
    """
    pool = worker_pool(conf_overrides)
    counts = _new_counts()
    return [
        _run_trial(pool, plan, fmt, test_input, counts, None)
        for plan, fmt, test_input in specs
    ]
