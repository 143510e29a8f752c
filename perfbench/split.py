"""Per-unit layer split of a traced run, and the per-layer metrics.

Two timelines are kept apart. The measuring process's spans lie on the
unit's critical path: their self times plus ``unattributed_s`` add up to
the unit's wall time, and ``executor.wait_s`` is the time it sat blocked
on pool workers. Worker spans ran in parallel with that wait, so their
self times add up to worker busy time, not to wall time. A layer's
``_s`` metric is its self time on both timelines together, per unit.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.layers import EXACT
from perfbench.spans import self_times

#: largest relative gap allowed between wall time and the split's sum
ADDS_UP = 1e-6

#: span metrics; each reports self time per unit as ``<metric>_s``
TIMED = (
    "executor.self",
    "executor.wait",
    "executor.prewarm",
    "executor.pack",
    "executor.unpack",
    "harness.self",
    "harness.provision",
    "harness.create",
    "harness.write",
    "harness.read",
    "harness.reset",
    "sparklite.sql",
    "sparklite.dataframe",
    "hivelite.execute",
    "formats.encode",
    "formats.decode",
    "oracles.failures",
    "oracles.robustness",
    "classify.classify",
    "fingerprint.fingerprints",
    "report.render",
    "faults.visit",
    "faults.baseline_rerun",
    "tracing.encode",
    "tracing.decode",
    "fuzz.round_self",
    "fuzz.generate",
    "fuzz.coverage",
    "campaign.commit",
    "campaign.checkpoint",
    "campaign.state_json",
    "obs.record",
)

#: counts reported as their mean per unit
COUNTED = EXACT + (
    "sql.parse_misses",
    "formats.bytes",
    "tracing.blob_bytes",
    "campaign.checkpoint_bytes",
    "obs.ledger_bytes_per_batch",
)

#: ratio metric -> (numerator count, denominator count)
RATIOS = {
    "executor.lane_ratio": ("executor.lanes_resolved", "executor.lanes"),
    "executor.deployment_reuse_ratio": (
        "executor.leases_reused",
        "executor.leases",
    ),
    "sql.plan_cache_hit_ratio": (
        "sql.plan_cache_hits",
        "sql.plan_cache_lookups",
    ),
}


def unit_split(
    units: list[dict],
    main_spans: list[tuple],
    main_counts: dict,
    workers: list[tuple[list, list]],
) -> dict[int, dict]:
    """Layer data of every timed unit (index >= 1), keyed by index."""
    timed = {unit["index"]: unit for unit in units if unit["index"] >= 1}
    parent, top_level = self_times(main_spans)
    split = {
        index: {
            "wall_s": unit["end"] - unit["start"],
            "parent": defaultdict(float),
            "workers": defaultdict(float),
            "counts": defaultdict(float),
        }
        for index, unit in timed.items()
    }
    for (index, metric), seconds in parent.items():
        if index in split:
            split[index]["parent"][metric] += seconds
    for (index, name), value in main_counts.items():
        if index in split:
            split[index]["counts"][name] += value
    for spans, counts in workers:
        selfs, _ = self_times(spans)
        for (index, metric), seconds in selfs.items():
            if index in split:
                split[index]["workers"][metric] += seconds
        for (index, name), value in counts:
            if index in split:
                split[index]["counts"][name] += value
    for index, data in split.items():
        data["unattributed_s"] = data["wall_s"] - top_level.get(index, 0.0)
        for key in ("parent", "workers", "counts"):
            data[key] = dict(data[key])
    return split


def adds_up(split: dict[int, dict]) -> float:
    """The largest gap, over units, between wall time and the parent's
    self times plus ``unattributed_s``, as a share of wall time; and a
    negative ``unattributed_s`` (spans that overlap) is a gap too."""
    worst = 0.0
    for data in split.values():
        total = sum(data["parent"].values()) + data["unattributed_s"]
        gap = abs(total - data["wall_s"]) / data["wall_s"]
        overlap = max(0.0, -data["unattributed_s"]) / data["wall_s"]
        worst = max(worst, gap, overlap)
    return worst


def layer_metrics(
    split: dict[int, dict],
    traced_walls: list[float],
    untraced_walls: list[float],
) -> dict[str, float]:
    """Every per-layer metric, as a mean per timed unit.

    ``trace_overhead`` compares the same units of both runs: the first
    ``n`` of each, where ``n`` is the shorter run's unit count, so a
    campaign's growing batches are compared age for age.
    """
    units = list(split.values())
    count = max(1, len(units))

    def mean(values) -> float:
        return sum(values) / count

    metrics: dict[str, float] = {}
    for metric in TIMED:
        metrics[f"{metric}_s"] = mean(
            data["parent"].get(metric, 0.0) + data["workers"].get(metric, 0.0)
            for data in units
        )
    for name in COUNTED:
        metrics[name] = mean(data["counts"].get(name, 0) for data in units)
    for name, (numerator, denominator) in RATIOS.items():
        top = sum(data["counts"].get(numerator, 0) for data in units)
        bottom = sum(data["counts"].get(denominator, 0) for data in units)
        metrics[name] = top / bottom if bottom else 0.0
    metrics["unattributed_s"] = mean(data["unattributed_s"] for data in units)
    metrics["unit_wall_s"] = mean(data["wall_s"] for data in units)
    n = min(len(traced_walls), len(untraced_walls))
    metrics["trace_overhead"] = (
        statistics.median(traced_walls[:n])
        / statistics.median(untraced_walls[:n])
        if n
        else 0.0
    )
    return metrics


def exact_counts(split: dict[int, dict]) -> dict[int, dict[str, float]]:
    """The counts that must repeat exactly, per unit index."""
    return {
        index: {name: data["counts"].get(name, 0) for name in EXACT}
        for index, data in split.items()
    }
