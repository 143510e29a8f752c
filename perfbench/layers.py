"""Wrap each layer's public entry points with spans and counts.

:func:`install` patches every entry point where its caller looks it up
(``repro.crosstest.executor.encode_span_batches``, not only
``repro.tracing.export.encode_span_batches``), so the wrapper runs on
the path the program really takes. Install before the first pool forks:
workers inherit the patched modules, and a wrapped ``run_shard`` still
pickles by its qualified name because ``functools.wraps`` keeps it.

A span's metric names the per-layer metric its self time adds to;
:mod:`perfbench.split` reports it as ``<metric>_s``.
"""

from __future__ import annotations

import functools
import os
from importlib import import_module
from typing import Callable

from perfbench.spans import Recorder, clock
from perfbench.workloads import parse_misses

#: per-layer counts that must repeat exactly for the same code and seed
EXACT = (
    "executor.deployments_created",
    "harness.create_n",
    "harness.write_n",
    "harness.read_n",
    "harness.reset_n",
    "faults.injected",
    "faults.retry_attempts",
    "tracing.spans",
    "fuzz.coverage_features",
    "fuzz.fingerprints",
)

#: metric -> the entry points it times, as ``module:function`` (patched
#: in the module its callers import it from) or ``module:Class.method``
ENTRY_POINTS = {
    "executor.self": (
        "repro.crosstest.executor:execute",
        "repro.fuzz.scheduler:execute",
    ),
    "executor.wait": ("repro.crosstest.executor:wait",),
    "executor.unpack": ("repro.crosstest.executor:ShardResult.to_trials",),
    "harness.self": ("repro.crosstest.executor:run_trial_on",),
    "harness.provision": ("repro.crosstest.harness:Deployment.__post_init__",),
    "harness.create": ("repro.crosstest.harness:Deployment.create_table",),
    "harness.write": (
        "repro.crosstest.harness:Deployment.write",
        "repro.crosstest.harness:Deployment.write_rows",
    ),
    "harness.read": ("repro.crosstest.harness:Deployment.read",),
    "harness.reset": ("repro.crosstest.harness:Deployment.reset",),
    "sparklite.sql": ("repro.sparklite.session:SparkSession.sql",),
    "sparklite.dataframe": (
        "repro.sparklite.session:SparkSession.create_dataframe",
        "repro.sparklite.session:SparkSession.read_table",
        "repro.sparklite.dataframe:DataFrameWriter.save_as_table",
    ),
    "hivelite.execute": ("repro.hivelite.engine:HiveServer.execute",),
    "oracles.failures": (
        "repro.crosstest.report:all_failures",
        "repro.fuzz.scheduler:all_failures",
    ),
    "oracles.robustness": ("repro.crosstest.report:fault_robustness",),
    "classify.classify": (
        "repro.crosstest.report:classify_trials",
        "repro.crosstest.classify:classify_trials",
        "repro.fuzz.scheduler:found_discrepancies",
    ),
    "fingerprint.fingerprints": (
        "repro.crosstest.report:run_fingerprints",
        "repro.fuzz.scheduler:run_fingerprints",
    ),
    "faults.visit": ("repro.faults.core:FaultInjector.visit",),
    "faults.baseline_rerun": ("repro.crosstest.report:run_trials",),
    "tracing.decode": ("repro.crosstest.executor:decode_span_batches",),
    "fuzz.round_self": ("repro.campaign.service:run_round",),
    "fuzz.generate": (
        "repro.fuzz.scheduler:gen_candidate",
        "repro.fuzz.scheduler:mutate",
    ),
    "fuzz.coverage": (
        "repro.fuzz.scheduler:trial_features",
        "repro.fuzz.coverage:CoverageMap.observe",
    ),
    "campaign.checkpoint": ("repro.campaign.service:save_checkpoint",),
    "campaign.state_json": ("repro.fuzz.scheduler:CampaignState.to_json",),
    "obs.record": (
        "repro.campaign.service:campaign_record",
        "repro.campaign.service:run_env",
    ),
}

#: one count per call of a harness span: the exact twins of its time
_CALL_COUNTS = {
    "harness.create": "harness.create_n",
    "harness.write": "harness.write_n",
    "harness.read": "harness.read_n",
    "harness.reset": "harness.reset_n",
    "harness.provision": "executor.deployments_created",
}


def _owner(target: str) -> tuple[object, str]:
    """The object to patch and the attribute name, for a table entry."""
    module, _, name = target.partition(":")
    owner = import_module(module)
    if "." in name:
        cls, name = name.split(".")
        owner = getattr(owner, cls)
    return owner, name


def _timed(rec: Recorder, metric: str, fn: Callable) -> Callable:
    count = _CALL_COUNTS.get(metric)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = rec.enter(metric)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave(metric, token)
            if count is not None:
                rec.add(count, 1)

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every entry point for the rest of this process's life."""
    for metric, targets in ENTRY_POINTS.items():
        for target in targets:
            owner, name = _owner(target)
            setattr(owner, name, _timed(rec, metric, owner.__dict__[name]))
    executor = import_module("repro.crosstest.executor")
    _wrap_worker_roots(rec, executor)
    _wrap_executor(rec, executor)
    _wrap_serde(rec)
    _wrap_counters(rec)
    _wrap_round(rec)


def _wrap_worker_roots(rec: Recorder, executor) -> None:
    """Shard and pre-warm calls: the roots of every worker's spans.

    Parse-cache misses are per process, so workers count theirs around
    these roots; the measuring process counts its own per unit.
    """

    def root(metric: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            in_worker = os.getpid() != rec.main_pid
            misses = parse_misses() if in_worker else 0
            token = rec.enter(metric)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.leave(metric, token)
                if in_worker:
                    rec.add("sql.parse_misses", parse_misses() - misses)

        return wrapper

    executor.run_shard = root("executor.self", executor.run_shard)
    executor.prewarm_worker = root("executor.prewarm", executor.prewarm_worker)


def _wrap_executor(rec: Recorder, executor) -> None:
    """Shard packing, lanes and span encoding, with what they count."""
    pack = executor.ShardResult.__dict__["pack"].__func__
    executor.ShardResult.pack = classmethod(_timed(rec, "executor.pack", pack))

    run_lane_on = executor.run_lane_on

    @functools.wraps(run_lane_on)
    def lane(*args, **kwargs):
        token = rec.enter("harness.self")
        try:
            outcomes = run_lane_on(*args, **kwargs)
        finally:
            rec.leave("harness.self", token)
        rec.add("executor.lanes", 1)
        if not isinstance(outcomes, str):
            rec.add("executor.lanes_resolved", 1)
        return outcomes

    encode = executor.encode_span_batches

    @functools.wraps(encode)
    def encode_span_batches(batches):
        token = rec.enter("tracing.encode")
        try:
            blob = encode(batches)
        finally:
            rec.leave("tracing.encode", token)
        rec.add("tracing.spans", sum(len(batch) for batch in batches))
        rec.add("tracing.blob_bytes", len(blob))
        return blob

    executor.run_lane_on = lane
    executor.encode_span_batches = encode_span_batches


def _wrap_serde(rec: Recorder) -> None:
    """``Serializer.write``/``read`` and every subclass override.

    Bytes are counted once per outermost write: the unified layer's
    write calls its base format's write on the same rows.
    """
    from repro.formats.base import Serializer

    def write(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec.stack()
            nested = bool(stack) and stack[-1][1] == "formats.encode"
            token = rec.enter("formats.encode")
            try:
                blob = fn(*args, **kwargs)
            finally:
                rec.leave("formats.encode", token)
            if not nested:
                rec.add("formats.bytes", len(blob))
            return blob

        return wrapper

    classes = [Serializer]
    for cls in classes:
        classes.extend(cls.__subclasses__())
        if "write" in cls.__dict__:
            cls.write = write(cls.__dict__["write"])
        if "read" in cls.__dict__:
            read = cls.__dict__["read"]
            cls.read = _timed(rec, "formats.decode", read)


def _wrap_counters(rec: Recorder) -> None:
    """Count-only wrappers: their time stays with the caller's span."""
    from repro.connectors.retry import RetryPolicy
    from repro.crosstest.executor import DeploymentPool
    from repro.faults.core import FaultInjector
    from repro.sql.plancache import PlanCache

    lease = DeploymentPool.lease

    @functools.wraps(lease)
    def counted_lease(self):
        deployment = lease(self)
        rec.add("executor.leases", 1)
        if deployment.leases > 1:
            rec.add("executor.leases_reused", 1)
        return deployment

    lookup = PlanCache.lookup

    @functools.wraps(lookup)
    def counted_lookup(self, *args, **kwargs):
        plan = lookup(self, *args, **kwargs)
        rec.add("sql.plan_cache_lookups", 1)
        if plan is not None:
            rec.add("sql.plan_cache_hits", 1)
        return plan

    call = RetryPolicy.call

    @functools.wraps(call)
    def counted_call(self, *args, **kwargs):
        attempts = self.stats.attempts
        try:
            return call(self, *args, **kwargs)
        finally:
            retries = self.stats.attempts - attempts - 1
            rec.add("faults.retry_attempts", retries)

    visit = FaultInjector.visit

    @functools.wraps(visit)
    def counted_visit(self, *args, **kwargs):
        fired = len(self.records)
        try:
            return visit(self, *args, **kwargs)
        finally:
            rec.add("faults.injected", len(self.records) - fired)

    DeploymentPool.lease = counted_lease
    PlanCache.lookup = counted_lookup
    RetryPolicy.call = counted_call
    FaultInjector.visit = counted_visit


def _wrap_round(rec: Recorder) -> None:
    """Per-batch fuzz counts, and where the campaign's commit starts."""
    service = import_module("repro.campaign.service")
    run_round = service.run_round

    @functools.wraps(run_round)
    def counted_round(*args, **kwargs):
        outcome = run_round(*args, **kwargs)
        rec.round_end = clock()
        rec.add("fuzz.coverage_features", outcome.coverage_features)
        rec.add("fuzz.fingerprints", len(outcome.witnessed))
        return outcome

    service.run_round = counted_round
