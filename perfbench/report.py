"""The human-readable report printed before the result line.

Its shape follows a stress-test report: a header naming the host, a
summary of units attempted and failed, a table (time per layer, or the
end-to-end metrics with a grade against each bound), failures in
detail, and one explicit verdict line.

End-to-end grades compare each metric with the median of the earlier
runs of the same workload recorded in this tree's ``.perfbench``
history: ``OK`` within the metric's bound, ``WORSE`` or ``BETTER`` by
more than the bound, ``new`` with nothing to compare.
"""

from __future__ import annotations

import statistics

from perfbench.layers import EXACT
from perfbench.split import ADDS_UP, TIMED


def _host(host: dict) -> str:
    return (
        f"{host['cores']} cores · jobs={host['jobs']} · pool={host['pool']}"
        f" · start={host['start_method']} · Python {host['python']}"
    )


def _header(args, facts: dict, kind: str) -> list[str]:
    return [
        f"# Benchmark report: {args.workload} ({kind})",
        "",
        f"**Host**: {_host(facts['host'])}",
        f"**Seed**: {args.seed} · **timed**: {args.seconds} s"
        f" · **timed units**: {facts['units']}",
        "",
        "## Summary",
        "",
        f"- **Units attempted**: {facts['attempted']}",
        f"- **Passed output check**: {facts['attempted'] - facts['failed']}",
        f"- **Failed**: {facts['failed']}",
        f"- **error_rate**: {facts['failed'] / facts['attempted']:.4f}",
        "",
    ]


def _grade(entry: dict, value: float, earlier: list[float]) -> str:
    if not earlier:
        return "new"
    base = statistics.median(earlier)
    if base == 0:
        return "OK"
    change = (value - base) / base
    if entry["better"] == "lower":
        change = -change
    if change < -entry["bound"]:
        return "WORSE"
    if change > entry["bound"]:
        return "BETTER"
    return "OK"


def _failures(facts: dict) -> list[str]:
    lines = []
    if facts["errors"] or facts["drift"]:
        lines += ["## Failures (detailed)", ""]
        for error in facts["errors"]:
            lines.append(f"### !!! [OUTPUT] {error}")
        for drift in facts["drift"]:
            lines.append(f"### !!! [DETERMINISM] exact count drifted: {drift}")
        lines.append("")
    return lines


def _end_to_end(args, spec, metrics, facts, history) -> list[str]:
    lines = _header(args, facts, "end to end, untraced")
    lines += [
        "## End-to-end metrics",
        "",
        f"Grades compare with the median of {len(history)} earlier runs "
        "of this workload in this tree.",
        "",
        "| metric | value | unit | bound | earlier median | grade |",
        "|--------|------:|------|------:|---------------:|-------|",
    ]
    worse = []
    for entry in spec["end_to_end"]:
        name = entry["name"]
        earlier = [
            row["metrics"][name] for row in history if name in row["metrics"]
        ]
        grade = _grade(entry, metrics[name], earlier)
        if grade == "WORSE":
            worse.append(name)
        median = f"{statistics.median(earlier):.4f}" if earlier else "—"
        label = name
        if name == "batch_s_tail":
            label += f" (p{facts['tail_percentile']:.0f} of {facts['units']})"
        lines.append(
            f"| {label} | {metrics[name]:.4f} | {entry['unit']} "
            f"| {entry['bound']:.0%} | {median} | {grade} |"
        )
    grade = "OK" if facts["failed"] == 0 else "FAIL"
    lines.append(
        f"| error_rate | {facts['failed'] / facts['attempted']:.4f} "
        f"| ratio | any error | — | {grade} |"
    )
    samples = ", ".join(f"{s:.3f}" for s in facts["setup_samples"])
    lines += [
        "",
        f"set-up samples (s): {samples}",
        f"peak_rss_mb is measured at the end of set-up; after all "
        f"{facts['units']} timed units it was {facts['end_rss_mb']:.1f} MB.",
        "",
    ]
    lines += _failures(facts)
    if facts["failed"]:
        verdict = (
            f"FAIL — {facts['failed']} of {facts['attempted']} units "
            "failed their output check."
        )
    elif worse:
        verdict = (
            f"REGRESSED — {', '.join(worse)} worse than the bound against "
            f"{len(history)} earlier runs."
        )
    elif history:
        verdict = (
            f"PASS — all {facts['attempted']} units correct; no metric "
            f"worse than its bound against {len(history)} earlier runs."
        )
    else:
        verdict = (
            f"PASS — all {facts['attempted']} units correct; first run in "
            "this tree, nothing to compare."
        )
    return lines + [f"> **VERDICT**: {verdict}"]


def _layers(args, spec, metrics, facts) -> list[str]:
    lines = _header(args, facts, "per layer, traced")
    units = list(facts["split"].values())
    count = max(1, len(units))
    wall = sum(data["wall_s"] for data in units) / count
    lines += [
        "## Time per layer (self time, mean per unit)",
        "",
        "The measuring process's column plus `unattributed` adds up to the",
        "unit's wall time; pool workers ran in parallel with",
        "`executor.wait`, so their column adds up to worker busy time.",
        "",
        "| layer | parent s | share of wall | workers s |",
        "|-------|---------:|--------------:|----------:|",
    ]
    for metric in TIMED:
        parent = sum(d["parent"].get(metric, 0.0) for d in units) / count
        workers = sum(d["workers"].get(metric, 0.0) for d in units) / count
        if parent or workers:
            lines.append(
                f"| {metric} | {parent:.4f} | {parent / wall:.1%} "
                f"| {workers:.4f} |"
            )
    unattributed = metrics["unattributed_s"]
    lines += [
        f"| (unattributed) | {unattributed:.4f} | {unattributed / wall:.1%}"
        " | |",
        f"| **unit wall** | {wall:.4f} | 100.0% | |",
        "",
        f"trace_overhead: {metrics['trace_overhead']:.3f}"
        " (traced ÷ untraced unit time)",
        "",
        "## Counts and ratios (mean per unit)",
        "",
        "| metric | value | unit | exact |",
        "|--------|------:|------|-------|",
    ]
    units_of = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    drifted = {drift.split(" ")[0] for drift in facts["drift"]}
    for name, value in metrics.items():
        if name.endswith("_s") or name == "trace_overhead":
            continue
        exact = ""
        if name in EXACT:
            exact = "DRIFT" if name in drifted else "repeats"
        lines.append(
            f"| {name} | {value:.4f} | {units_of.get(name, '')} | {exact} |"
        )
    lines += [""] + _failures(facts)
    gap = facts["adds_up"]
    if facts["failed"]:
        verdict = (
            f"FAIL — {facts['failed']} of {facts['attempted']} units "
            "failed their output check."
        )
    elif facts["drift"]:
        verdict = f"FAIL — {len(drifted)} exact counts drifted."
    elif gap > ADDS_UP:
        verdict = f"FAIL — the split misses wall time by {gap:.2%}."
    else:
        verdict = (
            f"PASS — all {facts['attempted']} units correct; the split adds "
            f"up to wall time; {len(EXACT)} exact counts repeat."
        )
    return lines + [f"> **VERDICT**: {verdict}"]


def render(args, spec, metrics, facts, history) -> list[str]:
    if args.trace:
        return _layers(args, spec, metrics, facts)
    return _end_to_end(args, spec, metrics, facts, history)
