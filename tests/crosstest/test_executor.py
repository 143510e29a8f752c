"""Tests for the parallel cross-test execution engine."""

import json
import os
import pickle
import subprocess
import sys
from itertools import product

import pytest

from repro.crosstest import executor
from repro.crosstest.executor import (
    CrossTestMetrics,
    DeploymentPool,
    build_shards,
    corpus_texts,
    execute,
    prewarm_worker,
    resolve_jobs,
    resolve_pool,
    run_shard,
    worker_pool,
)
from repro.crosstest.harness import (
    NO_ROWS,
    CrossTester,
    Deployment,
    run_trial_on,
)
from repro.crosstest.plans import ALL_PLANS
from repro.crosstest.report import run_crosstest
from repro.crosstest.values import generate_inputs
from repro.faults import BUILTIN_PLANS
from repro.formats import UnknownFormatError

SMALL_INPUTS = generate_inputs()[:30] + generate_inputs()[210:230]

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def trial_reprs(trials):
    """Order-sensitive canonical form; NaN-safe unlike dataclass ==."""
    return [repr(t) for t in trials]


def matrix_order(plans, formats, inputs):
    return [
        (plan.name, fmt, test_input.input_id)
        for plan in plans
        for fmt in formats
        for test_input in inputs
    ]


def reassembled(shards, run_inputs):
    """Each shard's trials put at their run indices; ``None`` where no
    shard landed, and a list where two did."""
    slots = {}
    for shard in shards:
        keys = [
            (plan.name, fmt, test_input.input_id)
            for (plan, fmt), test_input in product(shard.cells, shard.inputs)
        ]
        for index, key in zip(shard.trial_indices(run_inputs), keys):
            slots.setdefault(index, []).append(key)
    total = len(shards[0].cells) * run_inputs
    return [
        slots[index][0] if len(slots.get(index, ())) == 1 else None
        for index in range(total)
    ]


class TestBuildShards:
    def test_indexes_are_contiguous_and_ordered(self):
        shards = build_shards(ALL_PLANS, ("orc", "avro"), SMALL_INPUTS)
        assert [s.index for s in shards] == list(range(len(shards)))
        # every shard covers every cell, in plan -> format order
        cells = tuple(product(ALL_PLANS, ("orc", "avro")))
        assert all(s.cells == cells for s in shards)

    def test_concatenation_reproduces_sequential_nesting(self):
        # every (plan, fmt, input) lands exactly once, at its place in
        # the sequential plan -> format -> input nesting
        expected = matrix_order(
            ALL_PLANS[:3], ("orc", "parquet"), SMALL_INPUTS
        )
        for lanes in (True, False):
            shards = build_shards(
                ALL_PLANS[:3],
                ("orc", "parquet"),
                SMALL_INPUTS,
                shard_inputs=7,
                lanes=lanes,
            )
            assert reassembled(shards, len(SMALL_INPUTS)) == expected
            positions = sorted(p for s in shards for p in s.positions)
            assert positions == list(range(len(SMALL_INPUTS)))
            for shard in shards:
                assert shard.inputs == tuple(
                    SMALL_INPUTS[p] for p in shard.positions
                )

    def test_chunking_splits_within_a_cell(self):
        # with shared lanes a shard is one type's inputs, at most
        # shard_inputs of them, types in first-seen order; a larger
        # type is cut into consecutive chunks. Without, one input each.
        by_type = {}
        for position, test_input in enumerate(SMALL_INPUTS):
            by_type.setdefault(test_input.type_text, []).append(position)
        assert max(len(group) for group in by_type.values()) > 4
        shards = build_shards(
            ALL_PLANS[:1], ("orc",), SMALL_INPUTS, shard_inputs=4
        )
        assert [list(s.positions) for s in shards] == [
            group[start : start + 4]
            for group in by_type.values()
            for start in range(0, len(group), 4)
        ]
        single = build_shards(
            ALL_PLANS[:1], ("orc",), SMALL_INPUTS, lanes=False
        )
        assert [s.positions for s in single] == [
            (p,) for p in range(len(SMALL_INPUTS))
        ]

    def test_empty_inputs_yield_no_shards(self):
        assert build_shards(ALL_PLANS[:2], ("orc",), []) == []

    def test_empty_plans_or_formats_yield_no_shards(self):
        assert build_shards([], ("orc",), SMALL_INPUTS) == []
        assert build_shards(ALL_PLANS[:2], (), SMALL_INPUTS) == []

    def test_bad_shard_size_rejected(self):
        with pytest.raises(ValueError):
            build_shards(ALL_PLANS, ("orc",), SMALL_INPUTS, shard_inputs=0)


class TestResolve:
    def test_auto_sizes_to_host(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_pool_flavours(self):
        assert resolve_pool("auto", 1) == "thread"
        assert resolve_pool("auto", 4) == "process"
        assert resolve_pool("thread", 4) == "thread"
        with pytest.raises(ValueError):
            resolve_pool("fibers", 2)


class TestDeploymentPool:
    def test_reuses_released_deployments(self):
        pool = DeploymentPool()
        first = pool.lease()
        pool.release(first)
        second = pool.lease()
        assert second is first
        assert pool.created == 1 and pool.reused == 1

    def test_released_deployment_is_pristine(self):
        pool = DeploymentPool()
        deployment = pool.lease()
        deployment.spark.sql("CREATE TABLE ct (c int) STORED AS orc")
        deployment.spark.sql("INSERT INTO ct VALUES (5)")
        pool.release(deployment)
        leased = pool.lease()
        assert leased is deployment
        assert not leased.metastore.table_exists("ct")
        location = leased.metastore.table_location("default", "ct")
        assert not leased.filesystem.exists(location)


class TestRunShard:
    def test_pooled_and_fresh_deployments_agree(self):
        cells = ALL_PLANS[:2], ("parquet",)
        for shard in build_shards(*cells, SMALL_INPUTS):
            pooled = run_shard(shard)
            fresh = [
                run_trial_on(Deployment(), plan, fmt, test_input)
                for (plan, fmt), test_input in product(
                    shard.cells, shard.inputs
                )
            ]
            assert trial_reprs(pooled.to_trials(shard)) == trial_reprs(fresh)

    def test_durations_cover_every_trial(self):
        shards = build_shards(ALL_PLANS[:2], ("orc", "avro"), SMALL_INPUTS)
        assert max(len(s.inputs) for s in shards) > 1
        for shard in shards:
            result = run_shard(shard)
            assert len(result.durations) == len(result.to_trials(shard))
            assert len(result.durations) == len(shard)
            assert all(d >= 0 for d in result.durations)

    def test_result_ships_columns_not_trials(self):
        shard = max(
            build_shards(ALL_PLANS[:2], ("orc", "avro"), SMALL_INPUTS),
            key=len,
        )
        result = run_shard(shard)
        assert all(len(col) == len(shard) for col in result.outcome_columns)
        rebuilt = result.to_trials(shard)
        assert [
            (t.plan, t.fmt, t.test_input.input_id) for t in rebuilt
        ] == [
            (plan, fmt, test_input.input_id)
            for (plan, fmt), test_input in product(shard.cells, shard.inputs)
        ]
        assert result.spans_blob is None
        assert result.analyses == ()

    def test_traced_shard_round_trips_spans_through_blob(self):
        shard = build_shards(
            ALL_PLANS[:2], ("orc", "avro"), SMALL_INPUTS, lanes=False
        )[0]
        result = run_shard(shard, tracing=True)
        assert isinstance(result.spans_blob, bytes)
        batches = result.span_batches()
        assert len(batches) == len(shard) == 4
        input_id = shard.inputs[0].input_id
        assert [{s.trace_id for s in batch} for batch in batches] == [
            {f"{plan.name}/{fmt}/{input_id}"} for plan, fmt in shard.cells
        ]
        # traced without shipping: spans stay in the worker
        kept = run_shard(shard, tracing=True, ship_spans=False)
        assert kept.spans_blob is None
        # a shared lane cannot keep one span tree per trial
        wide = build_shards(ALL_PLANS[:1], ("orc",), SMALL_INPUTS)[0]
        assert len(wide.inputs) > 1
        with pytest.raises(ValueError):
            run_shard(wide, tracing=True)


class TestLeaseAccounting:
    """Every lease a run's shards take is counted exactly once.

    The shards' summed ``cache_counts`` must agree with what a fresh
    worker pool handed out, and their plan-cache deltas with the
    movement of the engines' own counters. ``w_df_r_sql`` on avro
    read-poisons the tinyint lane, so the batched run also fans out
    into lanes of one.
    """

    @pytest.mark.parametrize(
        "lanes,kwargs,laned",
        [
            (True, {}, True),
            (False, {}, False),
            (False, {"tracing": True}, False),
            (
                False,
                {"fault_plan": BUILTIN_PLANS["smoke"], "fault_seed": 7},
                False,
            ),
        ],
        ids=["batched", "plain", "traced", "faulted"],
    )
    def test_counts_match_the_pool(self, monkeypatch, lanes, kwargs, laned):
        monkeypatch.setattr(executor, "_WORKER_POOLS", {})
        plan = next(p for p in ALL_PLANS if p.name == "w_df_r_sql")
        if kwargs:
            # a shared lane cannot keep a per-trial tracer or injector
            wide = max(build_shards((plan,), ("avro",), SMALL_INPUTS), key=len)
            with pytest.raises(ValueError):
                run_shard(wide, **kwargs)
        shards = build_shards((plan,), ("avro",), SMALL_INPUTS, lanes=lanes)
        results = [run_shard(shard, **kwargs) for shard in shards]
        counts = {}
        for result in results:
            for name, value in result.cache_counts.items():
                counts[name] = counts.get(name, 0) + value
        resets = sum(len(r.stage_durations["reset"]) for r in results)
        pool = worker_pool()
        leases = pool.created + pool.reused
        assert counts["deployments_created"] == pool.created
        assert counts["deployments_reused"] == pool.reused
        assert resets == leases
        if laned:
            assert leases < len(SMALL_INPUTS)
        else:
            assert leases == len(SMALL_INPUTS)
        # every deployment went back to the pool, so together they
        # hold all the engine counter movement since they were built
        assert len(pool._idle) == pool.created
        stats = [
            cache.stats
            for deployment in pool._idle
            for cache in (
                deployment.spark.plan_cache,
                deployment.hive.plan_cache,
            )
        ]
        for name in ("hits", "misses", "invalidations", "evictions"):
            assert counts[f"plan_cache_{name}"] == sum(
                getattr(stat, name) for stat in stats
            )
        if "fault_plan" in kwargs:
            # the engines bypass their plan caches while injecting; the
            # connectors' retry counters are what moved
            retries = [d.spark.connector.retry.stats for d in pool._idle]
            assert counts["boundary_attempts"] == sum(
                stat.attempts for stat in retries
            )
            assert counts["boundary_faults"] == sum(
                stat.faults for stat in retries
            )
            assert counts["boundary_faults"] > 0
        else:
            assert counts["plan_cache_hits"] > 0


class TestBenchmarkHooks:
    """``perfbench/layers.py`` wraps executor entry points by the names
    it looks up in this module; a rename would break the benchmark with
    a ``KeyError`` that no other tier-1 test sees. Runs in a subprocess:
    the wrappers stay installed for the life of the process."""

    SCRIPT = """
import json, sys
from perfbench import layers, spans
rec = spans.Recorder(sys.argv[1])
layers.install(rec)
from repro.crosstest import executor
from repro.crosstest.plans import ALL_PLANS
from repro.crosstest.values import generate_inputs
seen = {}
for name, sink in (("plain", None), ("traced", {})):
    start = len(rec.spans)
    rec.counts.clear()
    executor.execute(
        ALL_PLANS[:1], ("parquet",), generate_inputs()[:6],
        jobs=1, trace_sink=sink,
    )
    seen[name] = {
        "spans": sorted({span[2] for span in rec.spans[start:]}),
        "lanes": sum(
            value for (_, count), value in rec.counts.items()
            if count == "executor.lanes"
        ),
    }
print(json.dumps(seen))
"""

    def test_layers_wrap_the_lane_and_the_isolated_path(self, tmp_path):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join((os.path.join(REPO, "src"), REPO)),
        )
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        for name in ("plain", "traced"):
            spans = set(seen[name]["spans"])
            assert {"harness.self", "harness.create", "harness.reset"} <= spans
        # the plain run shares a lane; the traced one runs lanes of one
        assert seen["plain"]["lanes"] > 0
        assert seen["traced"]["lanes"] == 0


class TestExecuteEquivalence:
    def sequential(self):
        return execute(ALL_PLANS, ("orc", "avro"), SMALL_INPUTS, jobs=1)

    def test_thread_parallel_identical_trials(self):
        parallel = execute(
            ALL_PLANS, ("orc", "avro"), SMALL_INPUTS, jobs=3, pool="thread"
        )
        assert trial_reprs(parallel) == trial_reprs(self.sequential())

    def test_process_parallel_identical_trials(self):
        parallel = execute(
            ALL_PLANS[:2], ("orc",), SMALL_INPUTS, jobs=2, pool="process"
        )
        sequential = execute(ALL_PLANS[:2], ("orc",), SMALL_INPUTS, jobs=1)
        assert trial_reprs(parallel) == trial_reprs(sequential)

    def test_report_json_identical_across_engines(self):
        seq = run_crosstest(
            inputs=SMALL_INPUTS, formats=("orc", "avro"), jobs=1
        )
        par = run_crosstest(
            inputs=SMALL_INPUTS, formats=("orc", "avro"), jobs=4, pool="thread"
        )
        assert seq.to_json() == par.to_json()

    def test_small_odd_shards_still_ordered(self, monkeypatch):
        sequential = execute(ALL_PLANS, ("orc",), SMALL_INPUTS, jobs=1)
        monkeypatch.setattr(executor, "DEFAULT_SHARD_INPUTS", 7)
        calls = []
        parallel = execute(
            ALL_PLANS,
            ("orc",),
            SMALL_INPUTS,
            jobs=5,
            pool="thread",
            progress=lambda *args: calls.append(args),
        )
        assert trial_reprs(parallel) == trial_reprs(sequential)
        # the cap took: as many shards as a 7-input cut makes
        assert calls[-1][1] == len(
            build_shards(ALL_PLANS, ("orc",), SMALL_INPUTS, shard_inputs=7)
        )
        assert calls[-1][1] > len(
            build_shards(ALL_PLANS, ("orc",), SMALL_INPUTS)
        )


class TestEmptyMatrix:
    def test_no_inputs_short_circuits(self):
        calls = []
        trials = execute(
            ALL_PLANS,
            ("orc", "avro"),
            [],
            jobs=1,
            progress=lambda *args: calls.append(args),
        )
        assert trials == []
        assert calls == []  # no shards, no progress chatter

    def test_no_inputs_never_spins_a_pool(self, monkeypatch):
        import repro.crosstest.executor as executor_mod

        def boom(*args, **kwargs):
            raise AssertionError("a zero-trial matrix built a worker pool")

        monkeypatch.setattr(executor_mod, "_make_executor", boom)
        assert execute(ALL_PLANS, ("orc",), [], jobs=4, pool="process") == []
        assert execute(ALL_PLANS, ("orc",), [], jobs=8, pool="thread") == []

    def test_no_plans_or_formats_short_circuit(self):
        assert execute([], ("orc",), SMALL_INPUTS, jobs=4) == []
        assert execute(ALL_PLANS, (), SMALL_INPUTS, jobs=4) == []

    def test_metrics_untouched_by_empty_matrix(self):
        metrics = CrossTestMetrics()
        execute(ALL_PLANS, ("orc",), [], jobs=2, metrics=metrics)
        assert int(metrics.trials_total.value) == 0
        assert int(metrics.shards_done.value) == 0


class TestPrewarm:
    def test_corpus_texts_cover_every_statement_shape(self):
        type_texts, statements = corpus_texts(
            ("orc", "avro"), SMALL_INPUTS[:5]
        )
        assert set(type_texts) == {i.type_text for i in SMALL_INPUTS[:5]}
        assert "SELECT * FROM ct" in statements
        for test_input in SMALL_INPUTS[:5]:
            assert (
                f"INSERT INTO ct VALUES ({test_input.sql_literal})"
                in statements
            )
            for fmt in ("orc", "avro"):
                assert (
                    f"CREATE TABLE ct (c {test_input.type_text}) "
                    f"STORED AS {fmt}" in statements
                )

    def test_prewarm_is_best_effort(self):
        # invalid texts and a warm-up trial that cannot run must never
        # raise — an initializer exception breaks the whole pool
        prewarm_worker(
            None,
            ALL_PLANS[:1],
            ("no-such-format",),
            tuple(SMALL_INPUTS[:1]),
            ("notatype((",),
            ("CREATE GARBAGE",),
        )

    def test_prewarm_compiles_first_shard_plans(self):
        inputs = tuple(generate_inputs()[:1])
        type_texts, statements = corpus_texts(("orc",), inputs)
        conf = {"repro.test.prewarm.inproc": "1"}  # a fresh pool key
        prewarm_worker(
            conf, tuple(ALL_PLANS[:2]), ("orc",), inputs, type_texts,
            statements,
        )
        pool = worker_pool(conf)
        deployment = pool.lease()
        try:
            spark = deployment.spark.plan_cache.stats
            hive = deployment.hive.plan_cache.stats
            warmed_misses = spark.misses + hive.misses
            assert warmed_misses > 0  # warm-up trials compiled plans
        finally:
            pool.release(deployment)
        # the "first shard" replays the same statements: all cache
        # hits, zero new compilations
        shard = build_shards(ALL_PLANS[:2], ("orc",), list(inputs))[0]
        result = run_shard(shard, conf)
        assert result.cache_counts["plan_cache_misses"] == 0
        assert result.cache_counts["plan_cache_hits"] > 0
        # and the pool recycles the pre-warmed deployment, not a new one
        assert result.cache_counts["deployments_created"] == 0

    def test_process_pool_prewarm_preserves_results(self):
        # a process pool that execute builds always pre-warms its
        # workers; what they run must still match the inline run
        sequential = execute(ALL_PLANS[:2], ("orc",), SMALL_INPUTS, jobs=1)
        warmed = execute(
            ALL_PLANS[:2], ("orc",), SMALL_INPUTS, jobs=2, pool="process"
        )
        assert trial_reprs(warmed) == trial_reprs(sequential)


class TestTelemetry:
    def test_metrics_count_every_trial(self):
        metrics = CrossTestMetrics()
        trials = execute(
            ALL_PLANS,
            ("orc",),
            SMALL_INPUTS,
            jobs=2,
            pool="thread",
            metrics=metrics,
        )
        assert int(metrics.trials_total.value) == len(trials)
        ok = sum(1 for t in trials if t.outcome.ok)
        assert int(metrics.trials_ok.value) == ok
        staged = sum(
            int(c.value) for c in metrics.stage_errors.values()
        )
        assert staged == len(trials) - ok

    def test_latency_histograms_populated(self):
        metrics = CrossTestMetrics()
        execute(
            ALL_PLANS[:2], ("orc", "avro"), SMALL_INPUTS[:10], metrics=metrics
        )
        names = metrics.registry.names()
        assert "latency_fmt_orc" in names and "latency_fmt_avro" in names
        hist = metrics.registry.get("latency_fmt_orc")
        assert hist.count == 2 * 10
        assert any("latency_plan_" in line for line in metrics.summary_lines())

    def test_progress_callback_monotonic(self):
        calls = []
        execute(
            ALL_PLANS[:2],
            ("orc",),
            SMALL_INPUTS,
            jobs=2,
            pool="thread",
            progress=lambda *args: calls.append(args),
        )
        assert calls, "progress callback never fired"
        done_shards = [c[0] for c in calls]
        assert done_shards == sorted(done_shards)
        final = calls[-1]
        assert final[0] == final[1]  # all shards reported
        assert final[2] == final[3] == 2 * len(SMALL_INPUTS)


class TestFormatValidation:
    def test_unknown_format_rejected_up_front(self):
        with pytest.raises(UnknownFormatError) as excinfo:
            CrossTester(inputs=[], formats=("orcc",))
        message = str(excinfo.value)
        for valid in ("avro", "orc", "parquet"):
            assert valid in message

    def test_empty_formats_rejected(self):
        with pytest.raises(UnknownFormatError):
            CrossTester(inputs=[], formats=())

    def test_unified_formats_accepted(self):
        tester = CrossTester(inputs=[], formats=("unified_orc", "parquet"))
        assert tester.formats == ("unified_orc", "parquet")


def test_no_rows_sentinel_survives_pickling():
    assert pickle.loads(pickle.dumps(NO_ROWS)) is NO_ROWS


def test_crosstester_run_jobs_parameter_matches_default():
    tester = CrossTester(inputs=SMALL_INPUTS[:12], formats=("parquet",))
    assert trial_reprs(tester.run()) == trial_reprs(
        tester.run(jobs=2, pool="thread")
    )
