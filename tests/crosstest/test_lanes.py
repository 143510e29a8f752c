"""Unit tests for batched trial lanes.

Covers the lane layer bottom-up: write-statement grouping
(:func:`_write_batches`), in-lane demultiplexing and the three
ambiguity reasons (:func:`run_lane_on`), the fallback ladder
(:func:`_run_lane`), the sparse :func:`run_trials` helper, deployment
lease hygiene, and the per-stage latency histograms.
"""

import pytest

from repro.common.result import QueryResult
from repro.common.schema import Field, Schema
from repro.crosstest.executor import (
    CrossTestMetrics,
    DeploymentPool,
    _new_counts,
    _run_lane,
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
from repro.crosstest.plans import ALL_PLANS
from repro.crosstest.values import TestInput

TestInput.__test__ = False


def make_input(type_text="int", sql="5", py=5, valid=True, input_id=0):
    return TestInput(input_id, type_text, sql, py, valid, "test")


PLANS_BY_NAME = {p.name: p for p in ALL_PLANS}

#: an int that strict-ANSI SparkSQL rejects at write time
OVERFLOW_SQL, OVERFLOW_PY = "2147483648", 2**31


def int_inputs(*values):
    return tuple(
        make_input(sql=str(v), py=v, input_id=i)
        for i, v in enumerate(values)
    )


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
        outcomes = run_lane_on(
            Deployment(), PLANS_BY_NAME["w_sql_r_sql"], "parquet", inputs
        )
        assert isinstance(outcomes, list)
        assert [o.value for o in outcomes] == [1, 2, 3]
        for outcome in outcomes:
            assert outcome.ok
            assert outcome.value_type == "int"
            assert outcome.row_count == 1

    def test_invalid_single_error_attributes_to_its_position(self):
        # the valid batch writes first (positions 0 and 2); demux must
        # still map the surviving rows back to the right inputs
        inputs = (
            make_input(sql="5", py=5, input_id=0),
            make_input(
                sql=OVERFLOW_SQL, py=OVERFLOW_PY, valid=False, input_id=1
            ),
            make_input(sql="7", py=7, input_id=2),
        )
        outcomes = run_lane_on(
            Deployment(), PLANS_BY_NAME["w_sql_r_sql"], "parquet", inputs
        )
        assert isinstance(outcomes, list)
        assert outcomes[0].ok and outcomes[0].value == 5
        assert outcomes[2].ok and outcomes[2].value == 7
        assert outcomes[1].stage == "write"
        assert outcomes[1].error_type == "ArithmeticOverflowError"

    def test_create_error_replicates_across_the_lane(self):
        inputs = tuple(
            make_input(
                type_text="map<int,string>",
                sql="map(1,'x')",
                py={1: "x"},
                input_id=i,
            )
            for i in range(3)
        )
        outcomes = run_lane_on(
            Deployment(), PLANS_BY_NAME["w_sql_r_sql"], "avro", inputs
        )
        assert isinstance(outcomes, list)
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert outcome.stage == "create"
            assert outcome.error_type == "UnsupportedTypeError"
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_shared_scan_failure_reports_read(self):
        # tinyint-on-avro breaks the DataFrame read for every input, so
        # the shared scan cannot attribute anything — the lane punts
        inputs = tuple(
            make_input(type_text="tinyint", sql=str(v), py=v, input_id=i)
            for i, v in enumerate((1, 2))
        )
        reason = run_lane_on(
            Deployment(), PLANS_BY_NAME["w_df_r_df"], "avro", inputs
        )
        assert reason == "read"

    def test_multirow_statement_failure_reports_write(self):
        # an erroring input mislabeled corpus-valid joins the multi-row
        # statement and poisons it; the lane cannot know which row
        inputs = (
            make_input(sql="5", py=5, input_id=0),
            make_input(
                sql=OVERFLOW_SQL, py=OVERFLOW_PY, valid=True, input_id=1
            ),
        )
        plan = PLANS_BY_NAME["w_sql_r_sql"]
        reason = run_lane_on(Deployment(), plan, "parquet", inputs)
        assert reason == "write"
        # single-row statements attribute exactly: same lane, no multirow
        outcomes = run_lane_on(
            Deployment(), plan, "parquet", inputs, multirow=False
        )
        assert isinstance(outcomes, list)
        assert outcomes[0].ok and outcomes[0].value == 5
        assert outcomes[1].stage == "write"
        assert outcomes[1].error_type == "ArithmeticOverflowError"

    def test_empty_scan_demuxes_shared_no_rows(self):
        deployment = Deployment()
        schema = Schema(
            (Field("c", make_input().column_type),), case_sensitive=True
        )
        deployment.read = lambda interface, table: QueryResult(schema)
        outcomes = run_lane_on(
            deployment, PLANS_BY_NAME["w_sql_r_sql"], "parquet",
            int_inputs(1, 2),
        )
        assert isinstance(outcomes, list)
        for outcome in outcomes:
            assert outcome.ok
            assert outcome.value is NO_ROWS
            assert outcome.row_count == 0

    def test_partial_row_loss_reports_count(self):
        # 2 successful writes but the scan surfaces 1 row: which write
        # lost its row is only observable in isolation
        deployment = Deployment()
        schema = Schema(
            (Field("c", make_input().column_type),), case_sensitive=True
        )
        deployment.read = lambda interface, table: QueryResult(
            schema, rows=((1,),)
        )
        reason = run_lane_on(
            deployment, PLANS_BY_NAME["w_sql_r_sql"], "parquet",
            int_inputs(1, 2),
        )
        assert reason == "count"

    @pytest.mark.parametrize("plan", ALL_PLANS, ids=lambda p: p.name)
    def test_lane_matches_isolated_for_every_plan(self, plan):
        inputs = (
            make_input(sql="5", py=5, input_id=0),
            make_input(
                sql=OVERFLOW_SQL, py=OVERFLOW_PY, valid=False, input_id=1
            ),
            make_input(sql="7", py=7, input_id=2),
        )
        lane = run_lane_on(Deployment(), plan, "parquet", inputs)
        isolated = [
            run_trial_on(Deployment(), plan, "parquet", test_input).outcome
            for test_input in inputs
        ]
        assert lane == isolated


class TestRunLaneLadder:
    def _ladder(self, plan, fmt, inputs):
        pool = DeploymentPool()
        return _run_lane(
            pool, plan, fmt, tuple(inputs), _new_counts(), None
        )

    def _isolated(self, plan, fmt, inputs):
        return [
            run_trial_on(Deployment(), plan, fmt, test_input).outcome
            for test_input in inputs
        ]

    def test_write_poisoned_lane_resolves_through_singles(self):
        inputs = (
            make_input(sql="5", py=5, input_id=0),
            make_input(
                sql=OVERFLOW_SQL, py=OVERFLOW_PY, valid=True, input_id=1
            ),
            make_input(sql="7", py=7, input_id=2),
        )
        plan = PLANS_BY_NAME["w_sql_r_sql"]
        assert self._ladder(plan, "parquet", inputs) == self._isolated(
            plan, "parquet", inputs
        )

    def test_read_poisoned_lane_resolves_through_isolation(self):
        inputs = tuple(
            make_input(type_text="tinyint", sql=str(v), py=v, input_id=i)
            for i, v in enumerate((1, 2, 3))
        )
        plan = PLANS_BY_NAME["w_df_r_df"]
        outcomes = self._ladder(plan, "avro", inputs)
        assert outcomes == self._isolated(plan, "avro", inputs)
        for outcome in outcomes:
            assert outcome.stage == "read"
            assert outcome.error_type == "IncompatibleSchemaException"

    def test_lane_of_one_runs_its_trial_once(self, monkeypatch):
        # the read-poisoned lane above, one input wide: a lane of one is
        # the isolated trial, so its failing scan is the outcome — no
        # shared-scan attempt first, no second run in isolation
        test_input = make_input(type_text="tinyint", sql="1", py=1)
        plan = PLANS_BY_NAME["w_df_r_df"]
        creates = []
        create_table = Deployment.create_table

        def counted_create(self, *args):
            creates.append(args)
            return create_table(self, *args)

        monkeypatch.setattr(Deployment, "create_table", counted_create)
        pool = DeploymentPool()
        counts = _new_counts()
        outcomes = _run_lane(pool, plan, "avro", (test_input,), counts, None)
        assert pool.created + pool.reused == 1
        assert counts["deployments_created"] == 1
        assert counts["deployments_reused"] == 0
        assert len(creates) == 1
        isolated = run_trial_on(Deployment(), plan, "avro", test_input)
        assert outcomes == [isolated.outcome]
        assert outcomes[0].stage == "read"

    def test_clean_lane_needs_no_fallback(self):
        plan = PLANS_BY_NAME["w_hive_r_sql"]
        inputs = int_inputs(1, 2, 3)
        assert self._ladder(plan, "orc", inputs) == self._isolated(
            plan, "orc", inputs
        )


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
            outcomes = run_lane_on(
                deployment, PLANS_BY_NAME["w_sql_r_sql"], "parquet",
                int_inputs(1, 2, 3),
            )
            assert isinstance(outcomes, list)
        finally:
            pool.release(deployment)
        self._assert_pristine(deployment)

    def test_failed_lane_release_is_clean(self):
        # a lane that punts ("read") leaves a written table behind —
        # release must still scrub it before the next lease
        pool = DeploymentPool()
        deployment = pool.lease()
        inputs = tuple(
            make_input(type_text="tinyint", sql=str(v), py=v, input_id=i)
            for i, v in enumerate((1, 2))
        )
        try:
            reason = run_lane_on(
                deployment, PLANS_BY_NAME["w_df_r_df"], "avro", inputs
            )
            assert reason == "read"
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
