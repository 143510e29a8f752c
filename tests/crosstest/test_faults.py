"""Fault-injected cross-test runs: byte identity, reproducibility,
robustness classification, process-pool record shipping, and which
fault sites the harness reaches."""

import json

import pytest

from repro.crosstest import CrossTestMetrics
from repro.crosstest.report import run_crosstest
from repro.crosstest.smoke import smoke_inputs
from repro.crosstest.values import generate_inputs
from repro.faults import (
    BUILTIN_PLANS,
    EMPTY_PLAN,
    KNOWN_SITES,
    FaultPlan,
    FaultRule,
)


def _subset_inputs(count=12):
    return generate_inputs()[:count]


def _render(report):
    return (
        json.dumps(report.to_json(), sort_keys=True),
        "\n".join(report.summary_lines()),
    )


def _fault_render(report):
    assert report.faults is not None
    return json.dumps(report.faults.to_json(), sort_keys=True)


class TestEmptyPlanByteIdentity:
    """An empty plan must be indistinguishable from no plan at all."""

    def test_jobs1(self):
        inputs = _subset_inputs()
        plain = run_crosstest(inputs=inputs, jobs=1)
        empty = run_crosstest(inputs=inputs, jobs=1, fault_plan=EMPTY_PLAN)
        assert empty.faults is None
        assert _render(plain) == _render(empty)

    def test_jobs4(self):
        inputs = _subset_inputs()
        plain = run_crosstest(inputs=inputs, jobs=1)
        empty = run_crosstest(inputs=inputs, jobs=4, fault_plan=EMPTY_PLAN)
        assert _render(plain) == _render(empty)

    def test_no_fault_keys_in_metrics(self):
        metrics = CrossTestMetrics()
        run_crosstest(inputs=_subset_inputs(4), jobs=1, metrics=metrics)
        assert metrics.fault_counters["faults_injected"].value == 0
        assert "fault" not in "\n".join(metrics.summary_lines()).lower()


class TestReproducibility:
    """Fixed (plan, seed) -> identical schedule and classifications."""

    def test_same_seed_same_report(self):
        inputs = _subset_inputs()
        plan = BUILTIN_PLANS["smoke"]
        first = run_crosstest(
            inputs=inputs, jobs=1, fault_plan=plan, fault_seed=1337
        )
        second = run_crosstest(
            inputs=inputs, jobs=1, fault_plan=plan, fault_seed=1337
        )
        assert _fault_render(first) == _fault_render(second)
        assert _render(first) == _render(second)

    def test_jobs_invariant(self):
        inputs = _subset_inputs()
        plan = BUILTIN_PLANS["chaos"]
        sequential = run_crosstest(
            inputs=inputs, jobs=1, fault_plan=plan, fault_seed=7
        )
        threaded = run_crosstest(
            inputs=inputs, jobs=4, pool="thread", fault_plan=plan,
            fault_seed=7,
        )
        assert _fault_render(sequential) == _fault_render(threaded)

    def test_process_pool_ships_records(self):
        inputs = _subset_inputs()
        plan = BUILTIN_PLANS["chaos"]
        sequential = run_crosstest(
            inputs=inputs, jobs=1, fault_plan=plan, fault_seed=7
        )
        pooled = run_crosstest(
            inputs=inputs, jobs=4, pool="process", fault_plan=plan,
            fault_seed=7,
        )
        assert pooled.faults.injected_trials > 0
        assert _fault_render(sequential) == _fault_render(pooled)

    def test_seed_changes_schedule(self):
        inputs = _subset_inputs()
        plan = BUILTIN_PLANS["smoke"]
        a = run_crosstest(inputs=inputs, jobs=1, fault_plan=plan, fault_seed=1)
        b = run_crosstest(inputs=inputs, jobs=1, fault_plan=plan, fault_seed=2)
        assert _fault_render(a) != _fault_render(b)


class TestRobustness:
    def test_smoke_plan_has_no_mis_handled(self):
        # smoke only hits retry-guarded spark->metastore calls: every
        # injection is masked or becomes a typed boundary error
        report = run_crosstest(
            inputs=_subset_inputs(),
            jobs=1,
            fault_plan=BUILTIN_PLANS["smoke"],
            fault_seed=1337,
        )
        counts = report.faults.counts()
        assert report.faults.injected_trials > 0
        assert counts["mis_handled"] == 0
        assert counts["masked"] + counts["gracefully_failed"] > 0

    def test_torn_writes_surface_wrong_system_errors(self):
        plan = FaultPlan(
            name="tear",
            rules=(
                FaultRule(
                    "*->hdfs", "torn_write", 0.6, operation="write_segment"
                ),
            ),
        )
        report = run_crosstest(
            inputs=_subset_inputs(), jobs=1, fault_plan=plan, fault_seed=3
        )
        modes = report.faults.mode_counts()
        assert report.faults.injected_trials > 0
        # a truncated blob is only noticed at read time, in the reader's
        # system — the paper's cross-the-cracks shape
        assert (
            modes.get("wrong_system_error", 0)
            + modes.get("silent_corruption", 0)
            > 0
        )

    def test_stale_metastore_mis_handled(self):
        report = run_crosstest(
            inputs=_subset_inputs(),
            jobs=1,
            fault_plan=BUILTIN_PLANS["stale-metastore"],
            fault_seed=5,
        )
        assert report.faults.injected_trials > 0
        assert report.faults.counts()["mis_handled"] > 0

    def test_unguarded_timeouts_are_hang_equivalent(self):
        # hive's metastore calls carry no retry policy on purpose:
        # a raw injected timeout escapes to the trial outcome
        plan = FaultPlan(
            name="hive-hang",
            rules=(FaultRule("hive->metastore", "timeout", 1.0),),
        )
        report = run_crosstest(
            inputs=_subset_inputs(4), jobs=1, fault_plan=plan, fault_seed=1
        )
        modes = report.faults.mode_counts()
        assert modes.get("hang_equivalent", 0) > 0

    def test_fault_metrics_counted(self):
        metrics = CrossTestMetrics()
        run_crosstest(
            inputs=_subset_inputs(),
            jobs=1,
            metrics=metrics,
            fault_plan=BUILTIN_PLANS["smoke"],
            fault_seed=1337,
        )
        assert metrics.fault_counters["faults_injected"].value > 0
        assert metrics.fault_counters["boundary_attempts"].value > 0
        assert metrics.fault_counters["boundary_masked_calls"].value > 0
        summary = "\n".join(metrics.summary_lines())
        assert "faults" in summary

    def test_report_json_shape(self):
        report = run_crosstest(
            inputs=_subset_inputs(4),
            jobs=1,
            fault_plan=BUILTIN_PLANS["smoke"],
            fault_seed=1337,
        )
        payload = report.to_json()["fault_robustness"]
        assert payload["plan"]["name"] == "smoke"
        assert payload["seed"] == 1337
        assert payload["injected_trials"] == len(payload["trials"])
        for entry in payload["trials"]:
            assert entry["classification"] in (
                "masked",
                "gracefully_failed",
                "mis_handled",
            )
            assert entry["injections"]
            assert entry["trial"].count("/") == 2

    def test_summary_names_mis_handled_trials(self):
        report = run_crosstest(
            inputs=_subset_inputs(4),
            jobs=1,
            fault_plan=BUILTIN_PLANS["stale-metastore"],
            fault_seed=5,
        )
        lines = report.summary_lines()
        assert any("fault plan: stale-metastore" in line for line in lines)
        if report.faults.mis_handled():
            assert any("MIS-HANDLED" in line for line in lines)


_NO_HBASE = "no §8 plan goes through the Hive-HBase storage handler"
_NO_YARN = "no §8 trial runs a YARN application master"
_UNPARTITIONED = "§8 trial tables are unpartitioned"

#: the known sites no §8 trial crosses, and why
_OUTSIDE_THE_HARNESS = {
    ("hive->hbase", "put"): _NO_HBASE,
    ("hive->hbase", "scan"): _NO_HBASE,
    ("am->rm", "report_final_status"): _NO_YARN,
    ("am->rm", "request_containers"): _NO_YARN,
    ("spark->hdfs", "read_partitioned_segments"): _UNPARTITIONED,
    ("hive->hdfs", "read_partitioned_segments"): _UNPARTITIONED,
}


@pytest.mark.parametrize(
    "site", KNOWN_SITES, ids=lambda site: f"{site.site}:{site.operation}"
)
def test_every_harness_site_fires(site):
    """A one-rule plan on each site the harness crosses fires there.

    A fault point that a refactor drops, or moves onto a path the
    harness no longer takes, would silently shrink what every fault
    plan can reach. The exempt sites must stay unreached, so the
    reasons above keep holding.
    """
    plan = FaultPlan(
        name="one-site",
        rules=(
            FaultRule(
                site.site,
                "io_error",
                1.0,
                operation=site.operation,
                max_per_trial=1,
            ),
        ),
    )
    report = run_crosstest(
        inputs=smoke_inputs(), jobs=1, fault_plan=plan, fault_seed=1
    )
    fired = [
        (record.site, record.operation)
        for records in report.faults.injections.values()
        for record in records
    ]
    key = (site.site, site.operation)
    assert set(fired) <= {key}
    exempt = _OUTSIDE_THE_HARNESS.get(key)
    assert bool(fired) == (exempt is None), exempt or "no injection fired"
