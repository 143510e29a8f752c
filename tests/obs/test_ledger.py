"""Tests for the campaign run ledger.

The load-bearing guarantee: with the clock injected and ``env`` pinned,
a ledger record is a pure function of the run's inputs — byte-identical
at every ``--jobs``/pool setting, for plain, fault-injected, and fuzz
runs alike.
"""

import json

import pytest

from repro.crosstest.report import run_crosstest
from repro.crosstest.smoke import smoke_inputs
from repro.faults import BUILTIN_PLANS
from repro.obs import (
    LEDGER_SCHEMA,
    LEDGER_SCHEMA_VERSION,
    Ledger,
    LedgerError,
    campaign_record,
    canonical_record,
    check_schema,
    crosstest_record,
    fuzz_record,
    read_ledger,
    read_ledger_with_tail,
    run_env,
)

SETTINGS = [
    (1, "thread"),
    (2, "thread"),
    (4, "thread"),
    (2, "process"),
    (4, "process"),
]

FIXED_CLOCK = lambda: 1700000000.0  # noqa: E731


@pytest.fixture(scope="module")
def smoke():
    return smoke_inputs()


def _record_bytes(record) -> bytes:
    return json.dumps(record, sort_keys=True).encode("utf-8")


class TestDeterminism:
    @pytest.fixture(scope="class")
    def plain_baseline(self, smoke):
        report = run_crosstest(inputs=smoke, formats=("parquet",), jobs=1)
        return crosstest_record(
            report, corpus="smoke", clock=FIXED_CLOCK, env={}
        )

    @pytest.mark.parametrize("jobs,pool", SETTINGS)
    def test_plain_record_byte_identical(
        self, smoke, plain_baseline, jobs, pool
    ):
        report = run_crosstest(
            inputs=smoke, formats=("parquet",), jobs=jobs, pool=pool
        )
        record = crosstest_record(
            report, corpus="smoke", clock=FIXED_CLOCK, env={}
        )
        assert _record_bytes(record) == _record_bytes(plain_baseline)

    @pytest.fixture(scope="class")
    def faulted_baseline(self, smoke):
        report = run_crosstest(
            inputs=smoke,
            formats=("parquet",),
            jobs=1,
            fault_plan=BUILTIN_PLANS["smoke"],
            fault_seed=1337,
        )
        return crosstest_record(
            report, corpus="smoke", clock=FIXED_CLOCK, env={}
        )

    @pytest.mark.parametrize("jobs,pool", SETTINGS)
    def test_faulted_record_byte_identical(
        self, smoke, faulted_baseline, jobs, pool
    ):
        report = run_crosstest(
            inputs=smoke,
            formats=("parquet",),
            jobs=jobs,
            pool=pool,
            fault_plan=BUILTIN_PLANS["smoke"],
            fault_seed=1337,
        )
        record = crosstest_record(
            report, corpus="smoke", clock=FIXED_CLOCK, env={}
        )
        assert _record_bytes(record) == _record_bytes(faulted_baseline)

    def test_env_is_outside_the_deterministic_core(self, smoke):
        report = run_crosstest(inputs=smoke, formats=("parquet",), jobs=1)
        noisy = crosstest_record(
            report,
            corpus="smoke",
            clock=FIXED_CLOCK,
            env={"jobs": 4, "wall_s": 1.23},
        )
        quiet = crosstest_record(
            report, corpus="smoke", clock=FIXED_CLOCK, env={}
        )
        assert canonical_record(noisy) == canonical_record(quiet)
        assert noisy != quiet

    def test_ts_is_outside_the_deterministic_core(self, smoke):
        # a resumed campaign stamps later wall-clock times than the
        # uninterrupted run it must canonically match
        report = run_crosstest(inputs=smoke, formats=("parquet",), jobs=1)
        early = crosstest_record(
            report, corpus="smoke", clock=lambda: 1.0, env={}
        )
        late = crosstest_record(
            report, corpus="smoke", clock=lambda: 9999.0, env={}
        )
        assert canonical_record(early) == canonical_record(late)
        assert "ts" not in canonical_record(early)
        assert early != late


class TestFuzzRecord:
    @pytest.fixture(scope="class")
    def campaign(self):
        from repro.fuzz import Baseline, FuzzConfig, run_fuzz

        def run(jobs, pool):
            config = FuzzConfig(
                seed=3,
                budget=16,
                batch=8,
                jobs=jobs,
                pool=pool,
                shrink=False,
            )
            return run_fuzz(config, Baseline.empty())

        return run

    def test_fuzz_record_byte_identical_across_jobs(self, campaign):
        baseline = fuzz_record(
            campaign(1, "thread"), clock=FIXED_CLOCK, env={}
        )
        for jobs, pool in [(2, "thread"), (4, "process")]:
            record = fuzz_record(
                campaign(jobs, pool), clock=FIXED_CLOCK, env={}
            )
            assert _record_bytes(record) == _record_bytes(baseline)

    def test_fuzz_record_shape(self, campaign):
        record = fuzz_record(campaign(1, "thread"), clock=FIXED_CLOCK, env={})
        assert record["kind"] == "fuzz"
        assert record["schema_version"] == LEDGER_SCHEMA_VERSION
        assert record["run"]["seed"] == 3
        results = record["results"]
        assert results["trials"] > 0
        assert results["coverage_features"] > 0
        assert results["fingerprints"] == sorted(results["fingerprints"])


class TestLedgerFile:
    def test_append_then_read_round_trips(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = Ledger(path)
        first = {"schema_version": 1, "kind": "crosstest", "ts": 1.0}
        second = {"schema_version": 1, "kind": "fuzz", "ts": 2.0}
        ledger.append(first)
        ledger.append(second)
        assert ledger.read() == [first, second]

    def test_missing_file_is_an_empty_campaign(self, tmp_path):
        assert read_ledger(str(tmp_path / "absent.jsonl")) == []

    def test_corrupt_line_reports_path_and_lineno(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(LedgerError, match=r"ledger\.jsonl:2"):
            read_ledger(str(path))

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(LedgerError, match="expected a JSON object"):
            read_ledger(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('\n{"ok": 1}\n\n')
        assert read_ledger(str(path)) == [{"ok": 1}]


class TestTornTail:
    """A hard-killed writer leaves at most one partial trailing line;
    the ledger layer must detect it — and tolerate it only when asked,
    never silently mis-parse it."""

    def test_strict_read_still_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"ok": 1}\n{"torn": tru')
        with pytest.raises(LedgerError, match=r"ledger\.jsonl:2"):
            read_ledger(str(path))

    def test_tolerant_read_drops_only_the_tail(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"ok": 1}\n{"torn": tru')
        records = read_ledger(str(path), tolerate_truncated_tail=True)
        assert records == [{"ok": 1}]

    def test_with_tail_reports_the_tear(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"ok": 1}\n{"torn": tru')
        records, truncated = read_ledger_with_tail(str(path))
        assert records == [{"ok": 1}]
        assert truncated is not None
        assert truncated[0] == 2

    def test_clean_ledger_has_no_tail(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"ok": 1}\n')
        assert read_ledger_with_tail(str(path)) == ([{"ok": 1}], None)

    def test_mid_file_corruption_raises_even_when_tolerant(self, tmp_path):
        # damage before the tail is not an append in flight
        path = tmp_path / "ledger.jsonl"
        path.write_text('not json\n{"ok": 1}\n')
        with pytest.raises(LedgerError, match=r"ledger\.jsonl:1"):
            read_ledger(str(path), tolerate_truncated_tail=True)

    def test_with_tail_raises_on_mid_file_corruption(self, tmp_path):
        # read_ledger_with_tail itself must distinguish the two: a bad
        # line followed by a good one is corruption, not a torn append
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"ok": 1}\nnot json\n{"ok": 2}\n')
        with pytest.raises(LedgerError, match=r"ledger\.jsonl:2"):
            read_ledger_with_tail(str(path))

    def test_two_bad_trailing_lines_are_corruption(self, tmp_path):
        # a hard kill tears at most ONE line; two unparseable trailing
        # lines cannot be an append in flight
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"ok": 1}\n{"torn": tru\n{"also": tor')
        with pytest.raises(LedgerError, match=r"ledger\.jsonl:2"):
            read_ledger_with_tail(str(path))

    def test_torn_sole_line_tolerated(self, tmp_path):
        # a writer killed during its very first append: empty prefix
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"torn": tru')
        records, truncated = read_ledger_with_tail(str(path))
        assert records == []
        assert truncated is not None and truncated[0] == 1

    def test_tail_report_carries_the_parse_reason(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"ok": 1}\n{"torn": tru')
        _, truncated = read_ledger_with_tail(str(path))
        assert truncated is not None
        lineno, reason = truncated
        assert lineno == 2
        assert reason  # a human can see *why* the line failed to parse

    def test_missing_file_is_clean(self, tmp_path):
        assert read_ledger_with_tail(str(tmp_path / "absent.jsonl")) == (
            [],
            None,
        )


class TestMetadataCaching:
    """Ledger appends must not pay a git fork each time: the probe runs
    once per process."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        from repro.obs.ledger import _clear_metadata_cache

        _clear_metadata_cache()
        yield
        _clear_metadata_cache()

    def test_git_probe_runs_once_per_process(self, monkeypatch):
        from repro.obs import ledger as ledger_mod

        calls = []

        class FakeProc:
            returncode = 0
            stdout = "abc1234\n"

        def fake_run(*args, **kwargs):
            calls.append(args)
            return FakeProc()

        monkeypatch.setattr(ledger_mod.subprocess, "run", fake_run)
        assert ledger_mod._git_metadata() == {"commit": "abc1234"}
        assert ledger_mod._git_metadata() == {"commit": "abc1234"}
        run_env(jobs=1)
        assert len(calls) == 1

    def test_failed_git_probe_is_cached_too(self, monkeypatch):
        from repro.obs import ledger as ledger_mod

        calls = []

        def fake_run(*args, **kwargs):
            calls.append(args)
            raise OSError("no git on this host")

        monkeypatch.setattr(ledger_mod.subprocess, "run", fake_run)
        assert ledger_mod._git_metadata() is None
        assert ledger_mod._git_metadata() is None
        assert len(calls) == 1


class TestCampaignRecord:
    def test_shape_and_determinism(self):
        run = {"seed": 11, "batch": 16, "batch_index": 2}
        results = {
            "trials": 384,
            "fingerprints": ["a|x", "b|y"],
            "new_fingerprints": ["b|y"],
            "novel": [],
        }
        record = campaign_record(run, results, clock=FIXED_CLOCK, env={})
        assert record["kind"] == "campaign"
        assert record["schema_version"] == LEDGER_SCHEMA_VERSION
        assert set(record) == set(LEDGER_SCHEMA["record"])
        again = campaign_record(run, results, clock=FIXED_CLOCK, env={})
        assert _record_bytes(record) == _record_bytes(again)

    def test_clock_and_env_stay_volatile(self):
        run = {"seed": 11, "batch": 16, "batch_index": 0}
        early = campaign_record(run, {}, clock=lambda: 1.0, env={})
        late = campaign_record(
            run, {}, clock=lambda: 2.0, env={"jobs": 4}
        )
        assert early != late
        assert canonical_record(early) == canonical_record(late)


class TestSchema:
    def test_current_version_accepted(self):
        check_schema([{"schema_version": LEDGER_SCHEMA_VERSION}])

    def test_drift_names_versions(self):
        records = [
            {"schema_version": LEDGER_SCHEMA_VERSION},
            {"schema_version": 99},
        ]
        with pytest.raises(LedgerError, match="99"):
            check_schema(records, "campaign.jsonl")

    def test_schema_constant_documents_every_record_key(self, smoke):
        report = run_crosstest(inputs=smoke, formats=("parquet",), jobs=1)
        record = crosstest_record(
            report, corpus="smoke", clock=FIXED_CLOCK, env={}
        )
        assert set(record) == set(LEDGER_SCHEMA["record"])
        assert LEDGER_SCHEMA["version"] == LEDGER_SCHEMA_VERSION


class TestRunEnv:
    def test_env_carries_what_the_caller_measured(self):
        env = run_env(jobs=4, pool="thread", wall_s=1.23456789)
        assert env["jobs"] == 4
        assert env["pool"] == "thread"
        assert env["wall_s"] == pytest.approx(1.234568)

    def test_metrics_snapshot_included(self):
        from repro.crosstest import CrossTestMetrics

        metrics = CrossTestMetrics()
        metrics.trials_total.increment(3)
        env = run_env(metrics=metrics)
        assert env["metrics"]["trials_total"]["value"] == 3.0

    def test_env_records_host_facts_not_a_bench_file(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.crosstest.executor import resolve_pool

        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"jobs1": {"trials_per_s": 1.0}}))
        monkeypatch.setenv("REPRO_BENCH_JSON", str(bench))
        env = run_env(jobs=2, pool=resolve_pool("auto", 2))
        assert env["cores"] == (os.cpu_count() or 1)
        assert env["pool"] == "process"
        assert "bench" not in env

    def test_crosstest_cli_records_the_resolved_pool(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "ledger.jsonl"
        assert main([
            "crosstest", "--formats", "parquet", "--jobs", "2",
            "--corpus", "smoke", "--quiet", "--ledger", str(path),
        ]) == 0
        (record,) = read_ledger(str(path))
        assert record["env"]["pool"] == "process"
        assert record["env"]["jobs"] == 2
