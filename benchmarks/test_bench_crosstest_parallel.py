"""Parallel execution of the §8 trial matrix.

The cross-test hot path is 10,128 independent trials. The sharded
executor must (a) return byte-identical results to the sequential loop
and (b) actually buy wall-clock on a multi-core host — the target is a
≥2x speedup at ``jobs=auto`` over ``jobs=1``. On a single-core host the
speedup assertion is skipped (there is nothing to parallelize onto) but
the identity assertion still runs.

Two wall-clock floors hold on any host and need only ``pytest`` (no
``benchmark`` fixture), so CI's bench-gate job runs them by node ID:
lanes must stay at least 1.3x faster than lanes of one at ``jobs=1``,
and on 2 or more cores a process pool must at least break even with
``jobs=1``. Each leg is the best of 3 full-matrix runs in this process,
interleaved so a slow spell on the host hits both legs alike.
"""

import json
import os
import time

import pytest

from repro.crosstest import CrossTestMetrics
from repro.crosstest.report import run_crosstest

CORES = os.cpu_count() or 1
MULTI_CORE = CORES >= 4


def _best_of_3(**legs) -> dict[str, float]:
    """Best wall time of each named leg (``run_crosstest`` kwargs)."""
    best = dict.fromkeys(legs, float("inf"))
    for _ in range(3):
        for name, kwargs in legs.items():
            started = time.perf_counter()
            run_crosstest(**kwargs)
            best[name] = min(best[name], time.perf_counter() - started)
    return best


def test_lanes_beat_lanes_of_one():
    best = _best_of_3(
        lanes_of_one=dict(jobs=1, batch=False), lanes=dict(jobs=1)
    )
    speedup = best["lanes_of_one"] / best["lanes"]
    print(
        f"\n  jobs=1 lanes of one {best['lanes_of_one']:.3f}s, "
        f"lanes {best['lanes']:.3f}s: {speedup:.2f}x"
    )
    assert speedup >= 1.3, f"lanes bought only {speedup:.2f}x (min 1.3x)"


@pytest.mark.skipif(CORES < 2, reason="nothing to parallelize onto")
def test_parallel_breaks_even():
    best = _best_of_3(
        sequential=dict(jobs=1), parallel=dict(jobs=CORES, pool="process")
    )
    speedup = best["sequential"] / best["parallel"]
    print(
        f"\n  jobs=1 {best['sequential']:.3f}s, jobs={CORES} process "
        f"pool {best['parallel']:.3f}s: {speedup:.2f}x"
    )
    assert speedup >= 1.0, (
        f"jobs={CORES} process pool lost to jobs=1: {speedup:.2f}x"
    )


def test_bench_crosstest_parallel_full_matrix(benchmark):
    started = time.perf_counter()
    sequential = run_crosstest(jobs=1)
    sequential_s = time.perf_counter() - started

    metrics = CrossTestMetrics()

    def parallel_run():
        return run_crosstest(jobs=None, metrics=metrics)

    parallel = benchmark.pedantic(parallel_run, rounds=1, iterations=1)
    parallel_s = benchmark.stats.stats.total

    speedup = sequential_s / parallel_s if parallel_s > 0 else 0.0
    print("\n§8 trial matrix: sequential vs parallel")
    print(f"  trials:            {len(parallel.trials)}")
    print(f"  jobs=1:            {sequential_s:.2f}s")
    print(f"  jobs=auto ({os.cpu_count()}):    {parallel_s:.2f}s")
    print(f"  speedup:           {speedup:.2f}x")
    for line in metrics.summary_lines():
        print("  " + line)

    # identical results regardless of scheduling
    assert len(parallel.trials) == len(sequential.trials) == 8 * 3 * 422
    assert json.dumps(parallel.to_json()) == json.dumps(sequential.to_json())
    assert parallel.found_numbers == set(range(1, 16))

    if MULTI_CORE:
        assert speedup >= 2.0, (
            f"expected >=2x speedup on {os.cpu_count()} cores, got {speedup:.2f}x"
        )


def test_bench_crosstest_shard_dispatch_overhead(benchmark):
    """Sharding itself must be ~free next to the trials it schedules."""
    from repro.crosstest.executor import DEFAULT_SHARD_INPUTS, build_shards
    from repro.crosstest.plans import ALL_PLANS, FORMATS
    from repro.crosstest.values import generate_inputs

    inputs = generate_inputs()
    shards = benchmark(build_shards, ALL_PLANS, FORMATS, inputs)
    print(f"\n  shards for full matrix: {len(shards)}")
    assert sum(len(s) for s in shards) == 8 * 3 * 422
    # every input in exactly one shard, every shard under all 24 cells
    assert sorted(p for s in shards for p in s.positions) == list(range(422))
    # shards stay balanced: no shard more than the configured chunk size
    assert max(len(s.inputs) for s in shards) <= DEFAULT_SHARD_INPUTS
