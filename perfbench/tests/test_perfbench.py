"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest -q perfbench/tests

Each end-to-end test runs ``perfbench/run.py`` for one second in a
temporary checkout (``src`` and ``perfbench`` linked, ``BENCHMARK.json``
copied), so nothing lands in the working tree's ``.perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run, spans, split

REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def _checkout(path, with_src: bool = True) -> str:
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), path)
    for name in ("perfbench", "src") if with_src else ("perfbench",):
        os.symlink(os.path.join(REPO, name), os.path.join(path, name))
    return str(path)


def _bench(root: str, workload: str, trace: int, seed: int = 7):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return _checkout(tmp_path_factory.mktemp("checkout"))


@pytest.fixture(scope="module")
def results(checkout):
    """One short pass of every workload, untraced and traced."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _bench(checkout, workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = proc.stdout.splitlines()
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_schema(results, workload, trace):
    line = json.loads(results[workload, trace][-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert line["failed"] == 0
    for value in line["metrics"].values():
        assert set(value) == {"value", "unit"}
        assert isinstance(value["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_present_with_its_unit(results, workload, trace):
    line = json.loads(results[workload, trace][-1])
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: value["unit"] for name, value in line["metrics"].items()
    } == {entry["name"]: entry["unit"] for entry in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_report_names_host_and_ends_in_a_verdict(results, workload):
    for trace in (0, 1):
        lines = results[workload, trace]
        assert any(line.startswith("**Host**: ") for line in lines)
        assert lines[-2].startswith("> **VERDICT**: PASS")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_split_adds_up_to_wall_time(results, workload):
    metrics = json.loads(results[workload, 1][-1])["metrics"]
    assert metrics["unattributed_s"]["value"] >= 0
    assert metrics["unattributed_s"]["value"] < metrics["unit_wall_s"]["value"]
    assert metrics["trace_overhead"]["value"] > 0
    # pool workers' spans were collected: their layers did work
    assert metrics["harness.write_n"]["value"] > 0


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = _bench(root, "matrix", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- pure parts -------------------------------------------------------------


def test_self_time_subtracts_children_and_adopts_by_interval():
    rows = [
        # sid, parent, metric, start, end, unit
        (1, 0, "a", 0.0, 10.0, 1),
        (2, 1, "b", 1.0, 4.0, 1),
        (3, 0, "c", 12.0, 13.0, 1),
        (4, spans.ADOPT, "commit", 11.0, 15.0, 1),
    ]
    selfs, top = spans.self_times(rows)
    assert selfs[(1, "a")] == 7.0
    assert selfs[(1, "b")] == 3.0
    assert selfs[(1, "commit")] == 3.0
    assert top[1] == 14.0


def test_unit_split_adds_up_and_keeps_workers_apart():
    units = [{"index": 1, "start": 0.0, "end": 20.0}]
    main = [(1, 0, "executor.wait", 1.0, 9.0, 1)]
    workers = [([(1, 0, "harness.write", 2.0, 8.0, 1)], [((1, "n"), 3)])]
    layers = split.unit_split(units, main, {(1, "n"): 1}, workers)
    data = layers[1]
    assert data["unattributed_s"] == 12.0
    assert data["parent"] == {"executor.wait": 8.0}
    assert data["workers"] == {"harness.write": 6.0}
    assert data["counts"] == {"n": 4}
    assert split.adds_up(layers) == 0.0


def test_tail_has_ten_samples_above_and_never_falls_below_median():
    value, percentile = run._tail([float(n) for n in range(1, 41)])
    assert (value, percentile) == (30.0, 75.0)
    assert run._tail([float(n) for n in range(1, 14)]) == (7.0, 100 * 7 / 13)
    assert run._tail([float(n) for n in range(1, 15)]) == (8.0, 100 * 8 / 14)


def test_exact_counts_flag_drift(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    store = run.Store("code")
    assert store.exact("matrix", {"*": {"harness.read_n": 5}}) == []
    assert store.exact("matrix", {"*": {"harness.read_n": 5}}) == []
    assert store.exact("matrix", {"*": {"harness.read_n": 6}}) == [
        "harness.read_n (unit *: 5 -> 6)"
    ]


def test_a_discrepancy_may_be_lost_only_to_a_gracefully_failed_trial():
    from perfbench.workloads import Passes

    # this fault seed gracefully fails every trial that evidences #3
    workload = Passes("chaos-smoke", 1873693428, 1)
    reference = workload.plain()
    report, rendered = workload.unit()
    assert 3 not in report.found_numbers
    assert workload.check(report, rendered, reference) is None
    # the same loss with evidence no fault touched is an error
    moved = dict(reference, evidence=dict(reference["evidence"], **{"3": [1]}))
    assert "#3" in workload.check(report, rendered, moved)
