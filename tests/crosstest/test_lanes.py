"""Unit tests for batched trial lanes.

Covers the lane layer bottom-up: write-statement grouping
(:func:`_write_batches`), writer groups — one create and write pass,
one scan per reader — with in-lane demultiplexing and the ambiguity
reasons (:func:`run_lane_on`), the fallback ladder per reader
(:func:`_run_lane`), the catalog guard that keeps shared reads pure,
grouping by writer in :func:`run_shard`, the sparse :func:`run_trials`
helper, deployment lease hygiene, and the per-stage latency histograms.
"""

import pytest

from repro.common.result import QueryResult
from repro.common.schema import Field, Schema
from repro.connectors.spark_hive import (
    NATIVE_SCHEMA_PROPERTY,
    schema_to_property,
)
from repro.crosstest import executor
from repro.crosstest.executor import (
    CrossTestMetrics,
    DeploymentPool,
    _new_counts,
    _run_lane,
    build_shards,
    run_shard,
    run_trials,
)
from repro.crosstest.harness import (
    NO_ROWS,
    TRIAL_TABLE,
    CrossTester,
    Deployment,
    _write_batches,
    run_lane_on,
    run_trial_on,
)
from repro.crosstest.plans import ALL_PLANS, Interface
from repro.crosstest.values import TestInput

TestInput.__test__ = False


def make_input(type_text="int", sql="5", py=5, valid=True, input_id=0):
    return TestInput(input_id, type_text, sql, py, valid, "test")


PLANS_BY_NAME = {p.name: p for p in ALL_PLANS}


def writer_group(writer):
    """The plans that share ``writer``, in plan order."""
    return tuple(p for p in ALL_PLANS if p.writer == writer)


SQL_GROUP = writer_group(Interface.SPARKSQL)
DF_GROUP = writer_group(Interface.DATAFRAME)
HIVE_GROUP = writer_group(Interface.HIVEQL)

#: an int that strict-ANSI SparkSQL rejects at write time
OVERFLOW_SQL, OVERFLOW_PY = "2147483648", 2**31


def int_inputs(*values):
    return tuple(
        make_input(sql=str(v), py=v, input_id=i)
        for i, v in enumerate(values)
    )


def tinyint_inputs(*values):
    """tinyint on avro breaks the DataFrame and SparkSQL reads of a
    DataFrame-written table, for every input; Hive reads it fine."""
    return tuple(
        make_input(type_text="tinyint", sql=str(v), py=v, input_id=i)
        for i, v in enumerate(values)
    )


def isolated(plans, fmt, inputs):
    """Each plan's outcomes, every trial on a fresh deployment."""
    return [
        [
            run_trial_on(Deployment(), plan, fmt, test_input).outcome
            for test_input in inputs
        ]
        for plan in plans
    ]


def patch_read(monkeypatch, interface, change):
    """Route ``interface``'s reads through ``change(deployment, table,
    result)``; ``change`` may raise, or return a different result."""
    read = Deployment.read

    def patched(self, reader, table):
        result = read(self, reader, table)
        if reader == interface:
            return change(self, table, result)
        return result

    monkeypatch.setattr(Deployment, "read", patched)


def count_creates(monkeypatch):
    """Record the writer of every ``Deployment.create_table`` call."""
    creates = []
    create_table = Deployment.create_table

    def counted(self, interface, *args):
        creates.append(interface)
        return create_table(self, interface, *args)

    monkeypatch.setattr(Deployment, "create_table", counted)
    return creates


def infer_and_save(deployment, table, result):
    """A write-back on read, as Spark's ``INFER_AND_SAVE`` would do:
    store the schema just read as the table's native schema, which
    every later Spark read then trusts (no case-preserving warning)."""
    deployment.metastore.alter_table_properties(
        table, {NATIVE_SCHEMA_PROPERTY: schema_to_property(result.schema)}
    )
    return result


class TestWriteBatches:
    def test_optimistic_lane_is_one_statement(self):
        inputs = int_inputs(1, 2, 3)
        assert _write_batches(inputs, True, True) == [[0, 1, 2]]

    def test_optimistic_batches_even_invalid_inputs(self):
        inputs = (
            make_input(sql="1", py=1),
            make_input(sql=OVERFLOW_SQL, py=OVERFLOW_PY, valid=False),
            make_input(sql="2", py=2),
        )
        assert _write_batches(inputs, True, True) == [[0, 1, 2]]

    def test_strict_lane_splits_valid_batch_from_invalid_singles(self):
        inputs = (
            make_input(sql="1", py=1),
            make_input(sql=OVERFLOW_SQL, py=OVERFLOW_PY, valid=False),
            make_input(sql="2", py=2),
            make_input(sql=OVERFLOW_SQL, py=OVERFLOW_PY, valid=False),
        )
        # valid positions first as one statement, each predicted
        # failure alone so its error attributes exactly
        assert _write_batches(inputs, True, False) == [[0, 2], [1], [3]]

    def test_strict_lane_all_valid_is_one_statement(self):
        inputs = int_inputs(1, 2, 3)
        assert _write_batches(inputs, True, False) == [[0, 1, 2]]

    def test_fewer_than_two_valid_degenerates_to_singles(self):
        inputs = (
            make_input(sql="1", py=1),
            make_input(sql=OVERFLOW_SQL, py=OVERFLOW_PY, valid=False),
        )
        assert _write_batches(inputs, True, False) == [[0], [1]]

    def test_multirow_off_means_singles(self):
        inputs = int_inputs(1, 2, 3)
        assert _write_batches(inputs, False, True) == [[0], [1], [2]]
        assert _write_batches(inputs, False, False) == [[0], [1], [2]]

    def test_single_input_lane(self):
        inputs = int_inputs(7)
        assert _write_batches(inputs, True, True) == [[0]]
        assert _write_batches(inputs, True, False) == [[0]]


class TestRunLaneOn:
    def test_happy_path_demux_preserves_positions(self):
        inputs = int_inputs(1, 2, 3)
        results = run_lane_on(Deployment(), SQL_GROUP, "parquet", inputs)
        assert len(results) == len(SQL_GROUP)
        for outcomes in results:
            assert [o.value for o in outcomes] == [1, 2, 3]
            for outcome in outcomes:
                assert outcome.ok
                assert outcome.value_type == "int"
                assert outcome.row_count == 1

    def test_invalid_single_error_attributes_to_its_position(self):
        # the valid batch writes first (positions 0 and 2); demux must
        # still map the surviving rows back to the right inputs, under
        # every reader, and the write error belongs to every plan
        inputs = (
            make_input(sql="5", py=5, input_id=0),
            make_input(
                sql=OVERFLOW_SQL, py=OVERFLOW_PY, valid=False, input_id=1
            ),
            make_input(sql="7", py=7, input_id=2),
        )
        results = run_lane_on(Deployment(), SQL_GROUP, "parquet", inputs)
        for outcomes in results:
            assert outcomes[0].ok and outcomes[0].value == 5
            assert outcomes[2].ok and outcomes[2].value == 7
            assert outcomes[1].stage == "write"
            assert outcomes[1].error_type == "ArithmeticOverflowError"

    def test_create_error_replicates_across_the_lane(self, monkeypatch):
        # the DDL does not depend on the reader: one failed create
        # reaches every plan and every input
        creates = count_creates(monkeypatch)
        inputs = tuple(
            make_input(
                type_text="map<int,string>",
                sql="map(1,'x')",
                py={1: "x"},
                input_id=i,
            )
            for i in range(3)
        )
        results = run_lane_on(Deployment(), SQL_GROUP, "avro", inputs)
        assert creates == [Interface.SPARKSQL]
        assert len(results) == len(SQL_GROUP)
        first = results[0][0]
        assert first.stage == "create"
        assert first.error_type == "UnsupportedTypeError"
        for outcomes in results:
            assert outcomes == [first] * 3
        assert results == isolated(SQL_GROUP, "avro", inputs)

    def test_shared_scan_failure_reports_read(self):
        # tinyint-on-avro breaks the Spark reads of a DataFrame-written
        # table for every input, so those shared scans cannot attribute
        # anything — those plans punt; Hive's scan still demuxes
        inputs = tinyint_inputs(1, 2)
        results = run_lane_on(Deployment(), DF_GROUP, "avro", inputs)
        assert [p.reader for p in DF_GROUP] == [
            Interface.SPARKSQL, Interface.DATAFRAME, Interface.HIVEQL,
        ]
        assert results[:2] == ["read", "read"]
        assert [o.value for o in results[2]] == [1, 2]

    def test_multirow_statement_failure_reports_write(self):
        # an erroring input mislabeled corpus-valid joins the multi-row
        # statement and poisons it; the lane cannot know which row
        inputs = (
            make_input(sql="5", py=5, input_id=0),
            make_input(
                sql=OVERFLOW_SQL, py=OVERFLOW_PY, valid=True, input_id=1
            ),
        )
        reason = run_lane_on(Deployment(), SQL_GROUP, "parquet", inputs)
        assert reason == "write"
        # single-row statements attribute exactly: same lane, no multirow
        results = run_lane_on(
            Deployment(), SQL_GROUP, "parquet", inputs, multirow=False
        )
        for outcomes in results:
            assert outcomes[0].ok and outcomes[0].value == 5
            assert outcomes[1].stage == "write"
            assert outcomes[1].error_type == "ArithmeticOverflowError"

    def test_empty_scan_demuxes_shared_no_rows(self):
        deployment = Deployment()
        schema = Schema(
            (Field("c", make_input().column_type),), case_sensitive=True
        )
        deployment.read = lambda interface, table: QueryResult(schema)
        results = run_lane_on(
            deployment, SQL_GROUP, "parquet", int_inputs(1, 2),
        )
        for outcomes in results:
            for outcome in outcomes:
                assert outcome.ok
                assert outcome.value is NO_ROWS
                assert outcome.row_count == 0

    def test_partial_row_loss_reports_count(self, monkeypatch):
        # 2 successful writes but the DataFrame scan surfaces 1 row:
        # which write lost its row is only observable in isolation, and
        # only for that reader — the other scans still demux
        patch_read(
            monkeypatch, Interface.DATAFRAME,
            lambda deployment, table, result: QueryResult(
                result.schema, rows=result.rows[:1]
            ),
        )
        results = run_lane_on(
            Deployment(), SQL_GROUP, "parquet", int_inputs(1, 2),
        )
        assert [p.reader for p in SQL_GROUP] == [
            Interface.SPARKSQL, Interface.DATAFRAME, Interface.HIVEQL,
        ]
        assert results[1] == "count"
        for outcomes in (results[0], results[2]):
            assert [o.value for o in outcomes] == [1, 2]

    @pytest.mark.parametrize("plan", ALL_PLANS, ids=lambda p: p.name)
    def test_lane_matches_isolated_for_every_plan(self, plan):
        # each plan, read from the table its whole writer group shares
        inputs = (
            make_input(sql="5", py=5, input_id=0),
            make_input(
                sql=OVERFLOW_SQL, py=OVERFLOW_PY, valid=False, input_id=1
            ),
            make_input(sql="7", py=7, input_id=2),
        )
        group = writer_group(plan.writer)
        results = run_lane_on(Deployment(), group, "parquet", inputs)
        assert results[group.index(plan)] == isolated(
            (plan,), "parquet", inputs
        )[0]

    def test_one_input_lane_attributes_read_errors_directly(self):
        # one row is never ambiguous: a failing scan is that trial's
        # read error, exactly as the isolated trial records it
        inputs = tinyint_inputs(1)
        results = run_lane_on(Deployment(), DF_GROUP, "avro", inputs)
        assert results == isolated(DF_GROUP, "avro", inputs)
        assert results[1][0].stage == "read"
        assert results[1][0].error_type == "IncompatibleSchemaException"

    def test_one_input_lane_attributes_any_row_count(self, monkeypatch):
        # a scan that surfaces two rows for one write is an observation
        # (row_count=2), not a "count" ambiguity
        patch_read(
            monkeypatch, Interface.HIVEQL,
            lambda deployment, table, result: QueryResult(
                result.schema, rows=result.rows * 2
            ),
        )
        inputs = int_inputs(4)
        results = run_lane_on(Deployment(), SQL_GROUP, "orc", inputs)
        assert results == isolated(SQL_GROUP, "orc", inputs)
        assert results[2][0].row_count == 2

    def test_catalog_moving_read_trips_the_guard(self, monkeypatch):
        # the SparkSQL read writes back to the catalog: it scanned the
        # pristine table, so its outcome stands; the DataFrame reader
        # after it would scan a changed table, so it is not attributed
        patch_read(monkeypatch, Interface.SPARKSQL, infer_and_save)
        inputs = int_inputs(1, 2)
        results = run_lane_on(Deployment(), HIVE_GROUP, "parquet", inputs)
        assert [p.reader for p in HIVE_GROUP] == [
            Interface.SPARKSQL, Interface.DATAFRAME,
        ]
        assert results[0] == isolated(HIVE_GROUP[:1], "parquet", inputs)[0]
        assert results[1] == "catalog"


class TestRunLaneLadder:
    def _ladder(self, plans, fmt, inputs, pool=None):
        return _run_lane(
            pool or DeploymentPool(), tuple(plans), fmt, tuple(inputs),
            _new_counts(), None,
        )

    def test_write_poisoned_lane_resolves_through_singles(self, monkeypatch):
        # the multi-row failure retries the whole group once with
        # single-row statements: two creates, no isolated trials
        inputs = (
            make_input(sql="5", py=5, input_id=0),
            make_input(
                sql=OVERFLOW_SQL, py=OVERFLOW_PY, valid=True, input_id=1
            ),
            make_input(sql="7", py=7, input_id=2),
        )
        creates = count_creates(monkeypatch)
        outcomes = self._ladder(SQL_GROUP, "parquet", inputs)
        assert len(creates) == 2
        assert outcomes == isolated(SQL_GROUP, "parquet", inputs)

    def test_read_poisoned_lane_resolves_through_isolation(self):
        inputs = tinyint_inputs(1, 2, 3)
        outcomes = self._ladder(DF_GROUP, "avro", inputs)
        assert outcomes == isolated(DF_GROUP, "avro", inputs)
        for outcome in outcomes[1]:
            assert outcome.stage == "read"
            assert outcome.error_type == "IncompatibleSchemaException"

    def test_lane_of_one_runs_its_trial_once(self, monkeypatch):
        # the read-poisoned lane above, one input wide: one row is
        # never ambiguous, so each failing scan is its plan's outcome —
        # one lease and one create for the group, no isolated reruns
        test_input = make_input(type_text="tinyint", sql="1", py=1)
        creates = count_creates(monkeypatch)
        pool = DeploymentPool()
        counts = _new_counts()
        outcomes = _run_lane(
            pool, DF_GROUP, "avro", (test_input,), counts, None
        )
        assert pool.created + pool.reused == 1
        assert counts["deployments_created"] == 1
        assert counts["deployments_reused"] == 0
        assert len(creates) == 1
        assert outcomes == isolated(DF_GROUP, "avro", (test_input,))
        assert outcomes[1][0].stage == "read"

    def test_clean_lane_needs_no_fallback(self):
        inputs = int_inputs(1, 2, 3)
        pool = DeploymentPool()
        outcomes = self._ladder(HIVE_GROUP, "orc", inputs, pool)
        assert pool.created + pool.reused == 1
        assert outcomes == isolated(HIVE_GROUP, "orc", inputs)

    def test_one_raising_reader_isolates_only_its_plan(self, monkeypatch):
        def fail(deployment, table, result):
            raise RuntimeError("scan failed")

        patch_read(monkeypatch, Interface.DATAFRAME, fail)
        creates = count_creates(monkeypatch)
        inputs = int_inputs(1, 2, 3)
        outcomes = self._ladder(SQL_GROUP, "parquet", inputs)
        # the group's create, then one isolated trial per input for the
        # DataFrame reader alone
        assert len(creates) == 1 + len(inputs)
        assert outcomes == isolated(SQL_GROUP, "parquet", inputs)
        assert [o.stage for o in outcomes[1]] == ["read"] * 3

    def test_one_miscounting_reader_isolates_only_its_plan(
        self, monkeypatch
    ):
        # the DataFrame scan drops a row whenever it sees several, so
        # only isolation (one row a table) observes it correctly
        patch_read(
            monkeypatch, Interface.DATAFRAME,
            lambda deployment, table, result: QueryResult(
                result.schema, rows=result.rows[:1],
                warnings=result.warnings,
            ),
        )
        creates = count_creates(monkeypatch)
        inputs = int_inputs(1, 2, 3)
        outcomes = self._ladder(SQL_GROUP, "parquet", inputs)
        assert len(creates) == 1 + len(inputs)
        assert outcomes == isolated(SQL_GROUP, "parquet", inputs)
        assert [o.value for o in outcomes[1]] == [1, 2, 3]

    @pytest.mark.parametrize("width", [1, 3])
    def test_catalog_moving_read_keeps_isolated_outcomes(
        self, monkeypatch, width
    ):
        # a write-back on read would change what the next reader of the
        # shared table sees (the DataFrame reader would trust the saved
        # schema and drop the case-preserving warning); the guard sends
        # the remaining readers to isolated trials instead
        patch_read(monkeypatch, Interface.SPARKSQL, infer_and_save)
        creates = count_creates(monkeypatch)
        inputs = int_inputs(*range(1, width + 1))
        outcomes = self._ladder(HIVE_GROUP, "parquet", inputs)
        laned_creates = len(creates)
        expected = isolated(HIVE_GROUP, "parquet", inputs)
        assert outcomes == expected
        assert all(o.warnings for o in expected[1])
        assert laned_creates == 1 + width


class TestWriterGroups:
    """A shared-lanes shard groups its cells by ``(writer, fmt)``."""

    def test_one_create_per_writer_and_format(self, monkeypatch):
        monkeypatch.setattr(executor, "_WORKER_POOLS", {})
        inputs = int_inputs(1, 2, 3)
        formats = ("orc", "parquet")
        (shard,) = build_shards(ALL_PLANS, formats, inputs)
        assert shard.lanes
        creates = count_creates(monkeypatch)
        shared = run_shard(shard).to_trials(shard)
        assert sorted(creates) == sorted(
            writer for writer in {p.writer for p in ALL_PLANS}
            for _ in formats
        )
        reference = [
            trial
            for unshared in build_shards(
                ALL_PLANS, formats, inputs, lanes=False
            )
            for trial in run_shard(unshared).to_trials(unshared)
        ]
        key = lambda t: (t.plan.name, t.fmt, t.test_input.input_id)  # noqa: E731
        assert sorted(shared, key=key) == sorted(reference, key=key)
        # cell-major order: for each (plan, fmt), the inputs in order
        assert [key(t) for t in shared] == [
            (plan.name, fmt, test_input.input_id)
            for plan in ALL_PLANS
            for fmt in formats
            for test_input in inputs
        ]

    def test_durations_split_each_group_evenly(self):
        inputs = int_inputs(1, 2)
        (shard,) = build_shards(SQL_GROUP, ("orc",), inputs)
        durations = run_shard(shard).durations
        assert len(durations) == len(SQL_GROUP) * len(inputs)
        assert len(set(durations)) == 1


class TestRunTrials:
    SPECS = [
        (PLANS_BY_NAME["w_sql_r_sql"], "parquet", make_input(sql="1", py=1)),
        (
            PLANS_BY_NAME["w_df_r_df"],
            "orc",
            make_input(type_text="string", sql="'x'", py="x", input_id=1),
        ),
        (
            PLANS_BY_NAME["w_sql_r_sql"],
            "parquet",
            make_input(
                sql=OVERFLOW_SQL, py=OVERFLOW_PY, valid=False, input_id=2
            ),
        ),
        (PLANS_BY_NAME["w_sql_r_sql"], "parquet", make_input(sql="2", py=2, input_id=3)),
        (PLANS_BY_NAME["w_hive_r_sql"], "avro", make_input(sql="3", py=3, input_id=4)),
    ]

    def test_outcomes_in_spec_order(self):
        outcomes = run_trials(self.SPECS)
        assert [o.value for o in outcomes if o.ok] == [1, "x", 2, 3]
        assert outcomes[2].stage == "write"


class TestLeaseHygiene:
    """Satellite: a released lease leaves zero residual state behind.

    The pool hands the same deployment to unrelated trials; any
    leftover metastore entry or warehouse path would let one trial
    observe another — exactly the cross-system leakage the harness
    exists to measure, not exhibit.
    """

    def _assert_pristine(self, deployment):
        assert deployment.metastore.list_tables() == []
        location = deployment.metastore.table_location(
            "default", TRIAL_TABLE
        )
        assert not deployment.filesystem.exists(location)
        # nothing else left in the database directory either
        parent = location.rsplit("/", 1)[0]
        if deployment.filesystem.exists(parent):
            assert deployment.filesystem.listdir(parent) == []

    def test_isolated_trial_release_is_clean(self):
        pool = DeploymentPool()
        deployment = pool.lease()
        try:
            run_trial_on(
                deployment, PLANS_BY_NAME["w_sql_r_sql"], "parquet",
                make_input(),
            )
        finally:
            pool.release(deployment)
        self._assert_pristine(deployment)

    def test_lane_release_is_clean(self):
        pool = DeploymentPool()
        deployment = pool.lease()
        try:
            results = run_lane_on(
                deployment, SQL_GROUP, "parquet", int_inputs(1, 2, 3),
            )
            assert all(isinstance(r, list) for r in results)
        finally:
            pool.release(deployment)
        self._assert_pristine(deployment)

    def test_failed_lane_release_is_clean(self):
        # a lane that punts ("read") leaves a written table behind —
        # release must still scrub it before the next lease
        pool = DeploymentPool()
        deployment = pool.lease()
        try:
            results = run_lane_on(
                deployment, DF_GROUP, "avro", tinyint_inputs(1, 2)
            )
            assert results[1] == "read"
        finally:
            pool.release(deployment)
        self._assert_pristine(deployment)
        assert deployment in pool._idle

    def test_released_deployment_is_recycled(self):
        pool = DeploymentPool()
        deployment = pool.lease()
        pool.release(deployment)
        assert pool.lease() is deployment
        assert pool.created == 1
        assert pool.reused == 1


class TestStageHistograms:
    """Satellite: per-stage latency lands in the metrics registry."""

    INPUTS = [
        make_input(sql="1", py=1),
        make_input(sql=OVERFLOW_SQL, py=OVERFLOW_PY, valid=False, input_id=1),
        make_input(type_text="string", sql="'x'", py="x", input_id=2),
    ]

    @pytest.mark.parametrize("batch", [True, False])
    def test_all_four_stages_observed(self, batch):
        metrics = CrossTestMetrics()
        tester = CrossTester(
            inputs=self.INPUTS,
            plans=(PLANS_BY_NAME["w_sql_r_sql"], PLANS_BY_NAME["w_df_r_df"]),
            formats=("parquet",),
        )
        tester.run(jobs=1, metrics=metrics, batch=batch)
        for stage in ("create", "write", "read", "reset"):
            histogram = metrics._latency("stage", stage)
            assert histogram.count > 0, stage
            assert histogram.sum >= 0.0
