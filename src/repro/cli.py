"""Command-line interface: ``python -m repro <command>``.

Commands map onto the paper's artifacts:

* ``study``     — regenerate Tables 1-9 and Findings 1-13 (C1/E1)
* ``crosstest`` — run the §8 Spark-Hive cross-test (C2/E2)
* ``fuzz``      — coverage-guided discrepancy search beyond the corpus
* ``campaign``  — the always-on version of ``fuzz``: checkpoint every
  batch, resume exactly after a kill, stream findings to the ledger
* ``replay``    — replay a named CSI failure (Figures 1-5 and more)
* ``confcheck`` — lint a deployment's configuration plane
* ``gaps``      — static reader-gap analysis per storage format
* ``trace``     — summarize exported boundary traces
* ``status``    — campaign observatory: ledger trends, co-occurrence
  clusters, live metrics (optionally served over HTTP)
* ``analyze``   — ledger analytics: commit/time windows, cluster drift
  at boundaries, cluster births/deaths/merges/splits
* ``triage``    — auto-triage a campaign's novel fingerprints from
  checkpoint provenance into a shrunk witness + baseline delta
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Fail through the Cracks' (EuroSys '23)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("study", help="regenerate Tables 1-9 and Findings 1-13")

    crosstest = sub.add_parser(
        "crosstest", help="run the §8 Spark-Hive cross-test"
    )
    crosstest.add_argument(
        "--conf",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="deployment configuration override (repeatable)",
    )
    crosstest.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    crosstest.add_argument(
        "--formats",
        default=None,
        help="comma-separated formats (default: orc,parquet,avro)",
    )
    crosstest.add_argument(
        "--corpus",
        default="full",
        choices=["full", "smoke"],
        help="input corpus: the full 422 curated inputs, or the "
        "coverage-distilled smoke subset that still triggers all 15 "
        "known discrepancy mechanisms (default: full)",
    )
    crosstest.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker count for the trial matrix "
        "(1 = sequential; default: auto-size to the host's cores)",
    )
    crosstest.add_argument(
        "--pool",
        default="auto",
        choices=["auto", "thread", "process"],
        help="worker pool flavour when --jobs > 1 (default: auto)",
    )
    crosstest.add_argument(
        "--batch",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="let same-type trials share a deployment lane "
        "(default: on; --no-batch runs every trial as a lane of one, "
        "as traced or fault-injected trials always do; the report is "
        "byte-identical either way)",
    )
    crosstest.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the progress/summary lines on stderr",
    )
    crosstest.add_argument(
        "--profile",
        action="store_true",
        help="profile the run with cProfile and print the top 25 "
        "functions by internal time to stderr",
    )
    crosstest.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="trace every trial and write one trace file per found "
        "discrepancy (JSONL + chrome://tracing) into DIR",
    )
    crosstest.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="dump the run's metrics and cache-registry snapshot as "
        "JSON to PATH",
    )
    crosstest.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="inject faults per PLAN: a builtin plan name "
        "(see 'repro faults list') or a JSON plan file",
    )
    crosstest.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the deterministic fault schedule (default: 0)",
    )
    crosstest.add_argument(
        "--fault-json",
        default=None,
        metavar="PATH",
        help="dump the fault-robustness report as JSON to PATH",
    )
    crosstest.add_argument(
        "--fault-gate",
        action="store_true",
        help="exit 3 if any injected trial is classified mis-handled",
    )
    crosstest.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="append one campaign-ledger record for this run to PATH "
        "(JSONL; see 'repro status'). A write failure is reported on "
        "stderr without changing the run's exit code",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided search for new cross-system discrepancies",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="campaign seed; every generator choice derives from it "
        "(default: 0)",
    )
    fuzz.add_argument(
        "--budget",
        type=int,
        default=64,
        metavar="N",
        help="candidates to generate — the determinism-safe budget "
        "unit, not wall-clock (default: 64)",
    )
    fuzz.add_argument(
        "--batch",
        type=int,
        default=16,
        metavar="N",
        help="candidates per scheduler round (default: 16)",
    )
    fuzz.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker count for each batch (default: 1; the campaign "
        "output is byte-identical at any jobs/pool setting)",
    )
    fuzz.add_argument(
        "--pool",
        default="auto",
        choices=["auto", "thread", "process"],
        help="worker pool flavour when --jobs > 1 (default: auto)",
    )
    fuzz.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="known-discrepancies baseline to dedup against (default: "
        "the committed known_discrepancies.json; 'none' for an empty "
        "baseline)",
    )
    fuzz.add_argument(
        "--out-dir",
        default=None,
        metavar="DIR",
        help="write fingerprints.jsonl plus one findings/<slug>/ dir "
        "(repro.json + trace.jsonl) per novel finding into DIR",
    )
    fuzz.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="merge this campaign's fingerprints into the baseline "
        "and save the union to PATH",
    )
    fuzz.add_argument(
        "--corpus",
        nargs="?",
        const="full",
        default=None,
        choices=["full", "smoke"],
        help="seed the mutation pool with the curated §8 corpus "
        "(parents only; corpus inputs are never executed). Optional "
        "value picks the corpus: 'full' (default when the flag is "
        "given) or the distilled 'smoke' subset",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip shrinking novel findings to minimal reproducers",
    )
    fuzz.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )
    fuzz.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the progress/summary lines on stderr",
    )
    fuzz.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="append one campaign-ledger record for this run to PATH "
        "(JSONL; see 'repro status'). A write failure is reported on "
        "stderr without changing the run's exit code",
    )

    campaign = sub.add_parser(
        "campaign",
        help="run the fuzz pipeline continuously with per-batch "
        "checkpoints; a killed campaign resumes exactly",
    )
    campaign.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="campaign seed; every generator choice derives from it "
        "(default: 0)",
    )
    campaign.add_argument(
        "--batch",
        type=int,
        default=16,
        metavar="N",
        help="candidates per batch — one batch is the commit/checkpoint "
        "unit (default: 16)",
    )
    campaign.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker count per batch (default: 1; campaign output is "
        "byte-identical at any jobs/pool setting, resume included)",
    )
    campaign.add_argument(
        "--pool",
        default="auto",
        choices=["auto", "thread", "process"],
        help="worker pool flavour when --jobs > 1 (default: auto)",
    )
    campaign.add_argument(
        "--checkpoint",
        default="campaign-checkpoint.json",
        metavar="PATH",
        help="checkpoint journal: one fsynced record appended per "
        "batch, compacted atomically when it doubles; resumed from when "
        "it already exists (default: campaign-checkpoint.json)",
    )
    campaign.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="append one 'campaign' ledger record per batch to PATH "
        "(JSONL; see 'repro status')",
    )
    campaign.add_argument(
        "--fingerprints",
        default="campaign-fingerprints.jsonl",
        metavar="PATH",
        help="stream one JSONL record per first-seen fingerprint to "
        "PATH (default: campaign-fingerprints.jsonl)",
    )
    campaign.add_argument(
        "--max-batches",
        type=int,
        default=None,
        metavar="N",
        help="stop once the campaign has committed N batches in total "
        "(counts batches from before a resume too); omit for the "
        "perpetual case",
    )
    campaign.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop starting new batches after SECONDS of wall clock; "
        "the in-flight batch always drains and commits",
    )
    campaign.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="known-discrepancies baseline to dedup against (default: "
        "the committed known_discrepancies.json; 'none' for an empty "
        "baseline)",
    )
    campaign.add_argument(
        "--corpus",
        nargs="?",
        const="full",
        default=None,
        choices=["full", "smoke"],
        help="seed the mutation pool with the curated §8 corpus "
        "(parents only; corpus inputs are never executed)",
    )
    campaign.add_argument(
        "--json",
        action="store_true",
        help="emit the invocation summary as JSON",
    )
    campaign.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-batch progress lines on stderr",
    )

    faults = sub.add_parser(
        "faults", help="inspect the fault-injection machinery"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    faults_sub.add_parser(
        "list", help="list injectable sites and builtin fault plans"
    )

    replay = sub.add_parser("replay", help="replay a named CSI failure")
    replay.add_argument(
        "jira", nargs="?", default=None,
        help="issue id (e.g. FLINK-12342); omit to list scenarios",
    )
    replay.add_argument(
        "--fixed", action="store_true", help="run the fixed variant"
    )

    confcheck = sub.add_parser(
        "confcheck", help="lint an example deployment's configuration plane"
    )
    confcheck.add_argument(
        "--scheduler", default="fair", choices=["fair", "capacity"]
    )

    gaps = sub.add_parser(
        "gaps", help="static reader-gap analysis for a storage format"
    )
    gaps.add_argument("format", nargs="?", default="avro")

    export = sub.add_parser(
        "export", help="dump the 120-case CSI dataset to a JSON file"
    )
    export.add_argument("path", help="output file (e.g. csi_failures.json)")

    trace = sub.add_parser(
        "trace", help="inspect boundary traces exported by --trace-dir"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="per-boundary span counts and latency percentiles",
    )
    summarize.add_argument(
        "directory", help="directory holding *.jsonl trace files"
    )
    summarize.add_argument(
        "--absent-policy",
        default="absent",
        choices=["zero", "absent", "error"],
        help="how a known boundary with no spans reads: absent "
        "(default; renders ABSENT), zero (the GCP-outage misread), "
        "or error (refuse the scrape)",
    )

    status = sub.add_parser(
        "status",
        help="campaign observatory: ledger trends, co-occurrence "
        "clusters, live metrics",
    )
    status.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="campaign ledger (JSONL) recorded with "
        "'crosstest --ledger' / 'fuzz --ledger'; omitted or empty "
        "ledgers render a 'no runs recorded' report",
    )
    status.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="J",
        help="minimum Jaccard similarity for two failure items to "
        "share a co-occurrence cluster (default: 0.5)",
    )
    status.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="campaign checkpoint written by 'repro campaign'; adds a "
        "live campaign panel (and the /campaign endpoint under --serve)",
    )
    status.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    status.add_argument(
        "--serve",
        default=None,
        metavar="[HOST:]PORT",
        help="serve /metrics, /ledger, /clusters and /campaign as JSON "
        "over HTTP until interrupted, instead of printing once. PORT 0 "
        "binds an ephemeral port; the resolved URL is printed to "
        "stdout either way",
    )
    status.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the informational lines on stderr",
    )

    analyze = sub.add_parser(
        "analyze",
        help="ledger analytics: windows, cluster drift at boundaries, "
        "cluster births/deaths/merges/splits",
    )
    analyze.add_argument(
        "--ledger",
        required=True,
        metavar="PATH",
        help="campaign ledger (JSONL) to analyze",
    )
    analyze.add_argument(
        "--by",
        default="commit",
        choices=["commit", "time"],
        help="window axis: env.git.commit boundaries (default) or "
        "fixed-width time buckets",
    )
    analyze.add_argument(
        "--window-seconds",
        type=float,
        default=None,
        metavar="S",
        help="time-window width for --by time (default: 86400, one "
        "nightly cadence)",
    )
    analyze.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="J",
        help="minimum Jaccard similarity for two failure items to "
        "share a co-occurrence cluster (default: 0.5)",
    )
    analyze.add_argument(
        "--min-delta",
        type=float,
        default=None,
        metavar="D",
        help="minimum per-window occurrence-rate change for a cluster "
        "to count as drifted (default: 0.25)",
    )
    analyze.add_argument(
        "--gate",
        action="store_true",
        help="exit 5 when any cluster drifted across a window "
        "boundary (the regression-alarm mode for CI)",
    )
    analyze.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    analyze.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the report text; useful with --gate when only "
        "the exit code matters",
    )

    triage = sub.add_parser(
        "triage",
        help="auto-triage a campaign's novel fingerprints: reproduce "
        "each from its checkpoint provenance, shrink the witness, "
        "emit a ready-to-commit baseline delta",
    )
    triage.add_argument(
        "--checkpoint",
        required=True,
        metavar="PATH",
        help="campaign checkpoint written by 'repro campaign'; witness "
        "inputs are regenerated from its (round, slot, input_id) "
        "coordinates",
    )
    triage.add_argument(
        "--fingerprints",
        default=None,
        metavar="PATH",
        help="fingerprint JSONL of the same campaign; restricts triage "
        "to the keys it marks novel (default: every novel key the "
        "checkpoint carries)",
    )
    triage.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="known-discrepancies baseline the delta extends (default: "
        "the committed known_discrepancies.json; 'none' for an empty "
        "baseline)",
    )
    triage.add_argument(
        "--out-dir",
        default="triage-out",
        metavar="DIR",
        help="where the triage artifacts land: triage-report.json/.txt, "
        "baseline-delta.json, proposed_known_discrepancies.json "
        "(default: triage-out)",
    )
    triage.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging the witnesses (faster; the report "
        "keeps the full-size witness)",
    )
    triage.add_argument(
        "--json",
        action="store_true",
        help="emit the triage report as JSON instead of text",
    )
    triage.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the informational lines on stderr",
    )
    return parser


def _cmd_study() -> int:
    from repro.core.analysis import compute_findings
    from repro.dataset import load_cbs_issues, load_failures, load_incidents

    findings = compute_findings(
        load_failures(), load_incidents(), load_cbs_issues()
    )
    for finding in findings:
        print(finding.render())
    reproduced = sum(1 for f in findings if f.holds)
    print(f"\n{reproduced}/13 findings reproduced")
    return 0 if reproduced == 13 else 1


def _cmd_crosstest(args: argparse.Namespace) -> int:
    import time

    from repro.crosstest import FORMATS, CrossTestMetrics, run_crosstest
    from repro.crosstest.executor import resolve_jobs, resolve_pool
    from repro.faults import PlanError, load_plan
    from repro.formats import UnknownFormatError

    fault_plan = None
    if args.faults is not None:
        try:
            fault_plan = load_plan(args.faults)
        except PlanError as exc:
            print(f"bad --faults {args.faults!r}: {exc}", file=sys.stderr)
            return 2
    elif args.fault_seed:
        print(
            "--fault-seed has no effect without --faults", file=sys.stderr
        )
        return 2

    overrides = {}
    for item in args.conf:
        key, sep, value = item.partition("=")
        # an empty VALUE is legitimate configuration; an empty KEY or a
        # missing '=' is not.
        if not sep or not key:
            print(f"bad --conf {item!r}; expected KEY=VALUE", file=sys.stderr)
            return 2
        overrides[key] = value
    if args.jobs is not None and args.jobs < 1:
        print(f"bad --jobs {args.jobs}; expected >= 1", file=sys.stderr)
        return 2
    formats = (
        tuple(args.formats.split(",")) if args.formats else FORMATS
    )

    show_progress = not args.quiet and sys.stderr.isatty()

    def progress(done_shards, total_shards, done_trials, total_trials):
        print(
            f"\r[crosstest] shard {done_shards}/{total_shards} "
            f"({done_trials}/{total_trials} trials)",
            end="" if done_shards < total_shards else "\n",
            file=sys.stderr,
            flush=True,
        )

    metrics = CrossTestMetrics()
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    inputs = None
    if args.corpus == "smoke":
        from repro.crosstest.smoke import smoke_inputs

        inputs = smoke_inputs()
    started = time.perf_counter()
    try:
        report = run_crosstest(
            inputs=inputs,
            formats=formats,
            conf_overrides=overrides,
            jobs=args.jobs,
            pool=args.pool,
            metrics=metrics,
            progress=progress if show_progress else None,
            tracing=args.trace_dir is not None,
            fault_plan=fault_plan,
            fault_seed=args.fault_seed,
            batch=args.batch,
        )
    except UnknownFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    if profiler is not None:
        import pstats

        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("tottime").print_stats(25)

    trace_note = None
    if args.trace_dir is not None:
        trace_note = _write_trace_dir(report, args.trace_dir)
    if args.metrics_json is not None:
        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            json.dump(metrics.to_json(), handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.fault_json is not None:
        fault_payload = (
            report.faults.to_json() if report.faults is not None else {}
        )
        with open(args.fault_json, "w", encoding="utf-8") as handle:
            json.dump(fault_payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    ledger_note = ledger_error = None
    if args.ledger is not None:
        from repro.obs import Ledger, crosstest_record, run_env

        record = crosstest_record(
            report,
            corpus=args.corpus,
            conf_overrides=overrides,
            env=run_env(
                jobs=resolve_jobs(args.jobs),
                pool=resolve_pool(args.pool, resolve_jobs(args.jobs)),
                wall_s=elapsed,
                metrics=metrics,
            ),
        )
        try:
            Ledger(args.ledger).append(record)
            ledger_note = f"appended run record to {args.ledger}"
        except OSError as exc:
            # exit-code-preserving: a broken ledger must not turn a
            # completed run into a failure (nor mask --fault-gate)
            ledger_error = f"ledger error: {exc}"

    # The report goes to stdout first and is flushed before any summary
    # chatter hits stderr, so piped consumers never see the two streams
    # interleaved mid-report.
    if args.json:
        print(json.dumps(report.to_json(), indent=1))
    else:
        print("\n".join(report.summary_lines()))
    sys.stdout.flush()
    if ledger_error is not None:
        # errors are not chatter: reported even under --quiet
        print(f"[crosstest] {ledger_error}", file=sys.stderr)
    if not args.quiet:
        trials = int(metrics.trials_total.value)
        rate = trials / elapsed if elapsed > 0 else 0.0
        print(
            f"[crosstest] {trials} trials in {elapsed:.2f}s "
            f"({rate:.0f}/s, jobs={resolve_jobs(args.jobs)}, "
            f"errors: {metrics.error_summary()})",
            file=sys.stderr,
        )
        print(f"[crosstest] {metrics.cache_summary()}", file=sys.stderr)
        if trace_note is not None:
            print(f"[crosstest] {trace_note}", file=sys.stderr)
        if ledger_note is not None:
            print(f"[crosstest] {ledger_note}", file=sys.stderr)
    if args.fault_gate and report.faults is not None:
        mis_handled = report.faults.mis_handled()
        if mis_handled:
            print(
                f"[crosstest] fault gate: {len(mis_handled)} mis-handled "
                "trial(s)",
                file=sys.stderr,
            )
            return 3
    return 0


def _write_trace_dir(report, trace_dir: str) -> str:
    """Write one trace (JSONL + Chrome) per found discrepancy.

    Each file holds the spans of every trial in the discrepancy's
    differential bucket — writer side and reader side — plus a separate
    ``oracles.jsonl`` for the oracle-evaluation phase.
    """
    import os
    import re

    from repro.crosstest.catalog import CATALOG
    from repro.tracing import write_chrome_trace, write_jsonl

    os.makedirs(trace_dir, exist_ok=True)
    jiras = {entry.number: entry.jira for entry in CATALOG}
    written = 0
    for number, spans in report.discrepancy_traces().items():
        if not spans:
            continue
        # "HIVE-26533 / SPARK-40409" and friends must stay one path part
        jira = re.sub(r"[^A-Za-z0-9._-]+", "-", jiras.get(number, "UNKNOWN"))
        stem = f"discrepancy_{number:02d}_{jira}"
        write_jsonl(spans, os.path.join(trace_dir, f"{stem}.jsonl"))
        write_chrome_trace(
            spans, os.path.join(trace_dir, f"{stem}.chrome.json")
        )
        written += 1
    if report.oracle_spans:
        write_jsonl(
            list(report.oracle_spans),
            os.path.join(trace_dir, "oracles.jsonl"),
        )
    return f"wrote {written} discrepancy traces to {trace_dir}"


def _load_baseline(path: str | None):
    """The fingerprint baseline ``--baseline`` names: ``none`` is an
    empty one, ``None`` the committed file. Prints the error and returns
    ``None`` when an explicit path cannot be read; a missing committed
    baseline is empty, so everything found is novel."""
    from repro.fuzz.dedup import Baseline, default_baseline_path

    if path == "none":
        return Baseline.empty()
    try:
        return Baseline.load(
            path if path is not None else default_baseline_path()
        )
    except OSError as exc:
        if path is not None:
            print(f"bad --baseline: {exc}", file=sys.stderr)
            return None
        return Baseline.empty()


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import time

    from repro.fuzz import Baseline, FuzzConfig, run_fuzz

    try:
        config = FuzzConfig(
            seed=args.seed,
            budget=args.budget,
            batch=args.batch,
            jobs=args.jobs,
            pool=args.pool,
            use_corpus=args.corpus is not None,
            corpus=args.corpus or "full",
            shrink=not args.no_shrink,
        )
    except ValueError as exc:
        print(f"bad fuzz config: {exc}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"bad --jobs {args.jobs}; expected >= 1", file=sys.stderr)
        return 2

    baseline = _load_baseline(args.baseline)
    if baseline is None:
        return 2

    show_progress = not args.quiet and sys.stderr.isatty()

    def progress(round_index, total_rounds, trials):
        print(
            f"\r[fuzz] round {round_index}/{total_rounds} "
            f"({trials} trials)",
            end="" if round_index < total_rounds else "\n",
            file=sys.stderr,
            flush=True,
        )

    metrics = None
    if args.ledger is not None:
        from repro.crosstest import CrossTestMetrics

        metrics = CrossTestMetrics(source="fuzz")
    started = time.perf_counter()
    result = run_fuzz(
        config,
        baseline,
        metrics=metrics,
        progress=progress if show_progress else None,
    )
    elapsed = time.perf_counter() - started

    ledger_note = ledger_error = None
    if args.ledger is not None:
        from repro.crosstest.executor import resolve_pool
        from repro.obs import Ledger, fuzz_record, run_env

        record = fuzz_record(
            result,
            env=run_env(
                jobs=config.jobs,
                pool=resolve_pool(config.pool, config.jobs),
                wall_s=elapsed,
                metrics=metrics,
            ),
        )
        try:
            Ledger(args.ledger).append(record)
            ledger_note = f"appended run record to {args.ledger}"
        except OSError as exc:
            # exit-code-preserving: a broken ledger must not mask the
            # novel-findings exit code (4) with a failure of its own
            ledger_error = f"ledger error: {exc}"

    if args.out_dir is not None:
        note = _write_fuzz_out_dir(result, args.out_dir)
        if not args.quiet:
            print(f"[fuzz] {note}", file=sys.stderr)
    if args.write_baseline is not None:
        merged = Baseline(dict(baseline.fingerprints))
        added = sum(
            merged.add(finding.fingerprint)
            for finding in result.findings.values()
        )
        merged.save(args.write_baseline)
        if not args.quiet:
            print(
                f"[fuzz] wrote baseline ({len(merged.fingerprints)} "
                f"fingerprints, {added} new) to {args.write_baseline}",
                file=sys.stderr,
            )

    if args.json:
        print(json.dumps(result.to_json(), indent=1, sort_keys=True))
    else:
        print("\n".join(result.summary_lines()))
    sys.stdout.flush()
    if ledger_error is not None:
        # errors are not chatter: reported even under --quiet
        print(f"[fuzz] {ledger_error}", file=sys.stderr)
    if not args.quiet:
        rate = result.trials_run / elapsed if elapsed > 0 else 0.0
        print(
            f"[fuzz] {result.trials_run} trials in {elapsed:.2f}s "
            f"({rate:.0f}/s, jobs={config.jobs}); "
            f"{len(result.findings)} fingerprints "
            f"({len(result.novel_findings)} novel)",
            file=sys.stderr,
        )
        if ledger_note is not None:
            print(f"[fuzz] {ledger_note}", file=sys.stderr)
    return 4 if result.novel_findings else 0


def _write_fuzz_out_dir(result, out_dir: str) -> str:
    """Write the campaign's artifacts: the fingerprint JSONL plus one
    ``findings/<slug>/`` directory (repro.json + trace.jsonl) per novel
    finding. Everything but the traces' timings is derived from the
    (deterministic) result, so two equal campaigns write equal trees;
    each trace comes from re-running the finding's witness traced.
    """
    import os
    import re

    from repro.fuzz.scheduler import trace_witness
    from repro.tracing import write_jsonl

    os.makedirs(out_dir, exist_ok=True)
    jsonl_path = os.path.join(out_dir, "fingerprints.jsonl")
    with open(jsonl_path, "w", encoding="utf-8") as handle:
        for record in result.fingerprint_records():
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    written = 0
    # findings often share a witness: trace each witness once
    traces: dict[int, list] = {}
    for index, finding in enumerate(result.novel_findings):
        fp = finding.fingerprint
        slug = re.sub(
            r"[^A-Za-z0-9._-]+",
            "-",
            f"{index:03d}_{fp.oracle}_{fp.type_shape}",
        )
        finding_dir = os.path.join(out_dir, "findings", slug)
        os.makedirs(finding_dir, exist_ok=True)
        with open(
            os.path.join(finding_dir, "repro.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(finding.to_json(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        input_id = finding.witness.input_id
        if input_id not in traces:
            traces[input_id] = trace_witness(result.config, finding)
        write_jsonl(
            traces[input_id], os.path.join(finding_dir, "trace.jsonl")
        )
        written += 1
    return (
        f"wrote {len(result.findings)} fingerprints and {written} "
        f"novel-finding dirs to {out_dir}"
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    import asyncio

    from repro.campaign import CampaignService, CheckpointError
    from repro.fuzz import FuzzConfig

    if args.jobs < 1:
        print(f"bad --jobs {args.jobs}; expected >= 1", file=sys.stderr)
        return 2
    if args.max_batches is not None and args.max_batches < 1:
        print(
            f"bad --max-batches {args.max_batches}; expected >= 1",
            file=sys.stderr,
        )
        return 2
    if args.duration is not None and args.duration <= 0:
        print(
            f"bad --duration {args.duration}; expected > 0", file=sys.stderr
        )
        return 2
    try:
        config = FuzzConfig(
            seed=args.seed,
            budget=args.batch,  # unused by the service; rounds are the unit
            batch=args.batch,
            jobs=args.jobs,
            pool=args.pool,
            use_corpus=args.corpus is not None,
            corpus=args.corpus or "full",
            shrink=False,
        )
    except ValueError as exc:
        print(f"bad campaign config: {exc}", file=sys.stderr)
        return 2

    baseline = _load_baseline(args.baseline)
    if baseline is None:
        return 2

    def progress(outcome):
        print(
            f"[campaign] batch {outcome.round_index}: "
            f"{outcome.trials} trials, "
            f"{len(outcome.new_keys)} new fingerprints "
            f"({len(outcome.novel_keys)} novel), "
            f"coverage {outcome.coverage_features}",
            file=sys.stderr,
            flush=True,
        )

    service = CampaignService(
        config,
        baseline,
        checkpoint_path=args.checkpoint,
        fingerprints_path=args.fingerprints,
        ledger_path=args.ledger,
        max_batches=args.max_batches,
        duration=args.duration,
        progress=None if args.quiet else progress,
    )
    try:
        summary = asyncio.run(service.run())
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(summary.to_json(), indent=1, sort_keys=True))
    else:
        verb = "resumed" if summary.resumed else "started"
        print(
            f"campaign {verb} at batch "
            f"{summary.batches_total - summary.batches_run}, "
            f"ran {summary.batches_run} batch(es) "
            f"(stop: {summary.stop_reason})"
        )
        print(
            f"  total: {summary.batches_total} batches, "
            f"{summary.candidates} candidates, {summary.trials} trials"
        )
        print(
            f"  found: {summary.fingerprints} fingerprints "
            f"({len(summary.novel_keys)} novel), "
            f"coverage {summary.coverage_features}"
        )
        for key in summary.novel_keys[:10]:
            print(f"  novel: {key}")
        if len(summary.novel_keys) > 10:
            print(f"  ... {len(summary.novel_keys) - 10} more novel")
    sys.stdout.flush()
    if not args.quiet and summary.novel_seen:
        print(
            "[campaign] novel fingerprints seen — exiting 4 "
            "(same contract as 'repro fuzz')",
            file=sys.stderr,
        )
    return summary.exit_code


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import BUILTIN_PLANS, KNOWN_SITES

    if args.faults_command == "list":
        print("injectable sites:")
        for site in KNOWN_SITES:
            kinds = ",".join(site.kinds)
            print(f"  {site.site:18} {site.operation:26} [{kinds}]")
        print("builtin plans:")
        for name, plan in sorted(BUILTIN_PLANS.items()):
            print(f"  {name:20} {plan.description}")
            for rule in plan.rules:
                cap = (
                    f", max {rule.max_per_trial}/trial"
                    if rule.max_per_trial
                    else ""
                )
                print(
                    f"    {rule.site}/{rule.operation}: "
                    f"{rule.kind} @ {rule.rate:g}{cap}"
                )
        return 0
    raise AssertionError(f"unhandled faults command {args.faults_command}")


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.scenarios import SCENARIOS, by_jira

    if args.jira is None:
        for scenario in SCENARIOS:
            print(
                f"{scenario.jira:14} [{scenario.plane}] "
                f"{scenario.upstream} -> {scenario.downstream}: "
                f"{scenario.pattern}"
            )
        return 0
    try:
        scenario = by_jira(args.jira.upper())
    except KeyError:
        print(f"no scenario for {args.jira!r}", file=sys.stderr)
        return 2
    outcome = (
        scenario.run_fixed() if args.fixed else scenario.run_failing()
    )
    print(outcome.describe())
    for key, value in sorted(outcome.metrics.items()):
        print(f"  {key} = {value}")
    return 1 if outcome.failed else 0


def _cmd_confcheck(args: argparse.Namespace) -> int:
    from repro.confcheck import Deployment, check_deployment, default_rules
    from repro.flinklite.configs import HEAP_CUTOFF_RATIO, FlinkConf
    from repro.sparklite.conf import SparkConf
    from repro.yarnlite.configs import SCHEDULER_CLASS, YarnConf

    yarn = YarnConf()
    yarn.set(SCHEDULER_CLASS, args.scheduler, source="cli")
    flink = FlinkConf()
    flink.set(HEAP_CUTOFF_RATIO, "0.0", source="cli")  # the FLINK-887 bug
    deployment = (
        Deployment().add(yarn).add(flink).add(SparkConf())
    )
    violations = check_deployment(deployment, default_rules())
    if not violations:
        print("deployment configuration is coherent")
        return 0
    for violation in violations:
        print(violation.render())
    return 1


def _cmd_gaps(args: argparse.Namespace) -> int:
    from repro.evolution import reader_gaps
    from repro.formats import serializer_for

    gaps = reader_gaps(serializer_for(args.format))
    if not gaps:
        print(f"{args.format}: no reader gaps")
        return 0
    print(f"{args.format}: {len(gaps)} reader gaps")
    for gap in gaps:
        print(f"  {gap.render()}")
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.metrics import AbsentPolicy, MetricError
    from repro.tracing import read_jsonl_dir, summary_lines

    try:
        spans = read_jsonl_dir(args.directory)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print("\n".join(summary_lines(spans, AbsentPolicy(args.absent_policy))))
    except MetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _iso(ts: float) -> str:
    import time

    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))


def _status_registries():
    """The live registries the status surface exposes: the process-wide
    cache stats (the only registry with module lifetime — run registries
    die with their runs)."""
    from repro.metrics.caches import cache_stats_registry

    return (cache_stats_registry(),)


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.obs import (
        DEFAULT_THRESHOLD,
        LEDGER_SCHEMA_VERSION,
        LedgerError,
        ObsServer,
        campaign_snapshot,
        check_schema,
        cluster_ledger,
        read_ledger,
    )

    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    )
    if not 0.0 < threshold <= 1.0:
        print(
            f"bad --threshold {threshold}; expected a Jaccard similarity "
            "in (0, 1]",
            file=sys.stderr,
        )
        return 2

    records: list[dict] = []
    if args.ledger is not None:
        try:
            # tolerate a torn trailing line: a live campaign writer
            # killed mid-append must not break its own status surface
            records = read_ledger(args.ledger, tolerate_truncated_tail=True)
            check_schema(records, args.ledger)
        except LedgerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.serve is not None:
        host, sep, port_text = args.serve.rpartition(":")
        if not sep:
            host = "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            print(
                f"bad --serve {args.serve!r}; expected [HOST:]PORT",
                file=sys.stderr,
            )
            return 2
        try:
            server = ObsServer(
                ledger_path=args.ledger,
                registries=_status_registries(),
                host=host,
                port=port,
                threshold=threshold,
                checkpoint_path=args.checkpoint,
            )
        except OSError as exc:
            print(f"error: cannot bind {args.serve!r}: {exc}", file=sys.stderr)
            return 2
        # the *resolved* URL goes to stdout even under --quiet: with an
        # ephemeral port (--serve 0) it is the only way a script can
        # learn where the server actually bound
        print(f"serving at {server.url()}", flush=True)
        if not args.quiet:
            print(
                f"[status] serving {', '.join(server.ENDPOINTS)} "
                f"at {server.url()} (Ctrl-C to stop)",
                file=sys.stderr,
            )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
        return 0

    clusters = cluster_ledger(records, threshold=threshold)
    metrics_snapshot = {
        registry.system: registry.snapshot()
        for registry in _status_registries()
    }

    if args.json:
        payload = {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "ledger": args.ledger,
            "total_runs": len(records),
            "threshold": threshold,
            "runs": records,
            "clusters": [cluster.to_json() for cluster in clusters],
            "metrics": metrics_snapshot,
        }
        from repro.analytics import analyze_ledger

        payload["analytics"] = analyze_ledger(
            records, threshold=threshold
        ).to_json()
        if args.checkpoint is not None:
            payload["campaign"] = campaign_snapshot(args.checkpoint)
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0

    print(
        f"campaign ledger: {args.ledger or '(none)'} "
        f"(schema v{LEDGER_SCHEMA_VERSION})"
    )
    if args.checkpoint is not None:
        panel = campaign_snapshot(args.checkpoint)
        if not panel["active"]:
            detail = panel.get("error", "no checkpoint yet")
            print(f"campaign: {args.checkpoint} — {detail}")
        else:
            print(
                f"campaign: {args.checkpoint} — batch {panel['batches']}, "
                f"{panel['candidates']} candidates, {panel['trials']} "
                f"trials, {panel['fingerprints']} fingerprints "
                f"({panel['novel']} novel), coverage "
                f"{panel['coverage_features']}, last commit "
                f"{_iso(float(panel['mtime']))}"
            )
    if not records:
        print(
            "no runs recorded — record one with "
            "'repro crosstest --ledger PATH' or 'repro fuzz --ledger PATH'"
        )
        return 0

    kinds: dict[str, int] = {}
    for record in records:
        kind = str(record.get("kind", "?"))
        kinds[kind] = kinds.get(kind, 0) + 1
    kind_text = ", ".join(
        f"{count} {kind}" for kind, count in sorted(kinds.items())
    )
    timestamps = [float(record.get("ts", 0.0)) for record in records]
    print(
        f"runs: {len(records)} ({kind_text}), "
        f"{_iso(min(timestamps))} .. {_iso(max(timestamps))}"
    )
    print()
    print("recent runs (newest last):")
    for record in records[-10:]:
        results = record.get("results", {})
        run = record.get("run", {})
        fingerprints = len(results.get("fingerprints", ()))
        faults = results.get("faults") or {}
        fault_text = (
            f", faults={faults.get('plan')}"
            f" mis_handled={len(faults.get('mis_handled', ()))}"
            if faults
            else ""
        )
        print(
            f"  {_iso(float(record.get('ts', 0.0)))} "
            f"{record.get('kind', '?'):9} "
            f"trials={results.get('trials', 0):<5} "
            f"fingerprints={fingerprints}{fault_text}"
            + (
                f" corpus={run.get('corpus')}"
                if run.get("corpus") is not None
                else ""
            )
        )
    print()
    if not clusters:
        print(
            f"co-occurrence clusters (Jaccard >= {threshold:g}): none — "
            "no failure items recorded yet"
        )
    else:
        print(
            f"co-occurrence clusters (Jaccard >= {threshold:g}): "
            f"{len(clusters)}"
        )
        for index, cluster in enumerate(clusters, start=1):
            failed = len(cluster.runs)
            print(
                f"  #{index}: {len(cluster.members)} member(s), "
                f"flake {cluster.flake_rate:.0%} "
                f"({failed}/{len(records)} runs), "
                f"seams: {', '.join(cluster.seams)}"
            )
            print(
                f"      first seen {_iso(cluster.first_seen)}, "
                f"last seen {_iso(cluster.last_seen)}"
            )
            for member in cluster.members[:5]:
                print(f"      {member}")
            if len(cluster.members) > 5:
                print(f"      ... {len(cluster.members) - 5} more")
    from repro.analytics import commit_windows, detect_drift

    if len(commit_windows(records)) >= 2:
        drifts = detect_drift(records, threshold=threshold)
        print()
        if not drifts:
            print("commit drift: none — cluster rates stable across commits")
        else:
            print(f"commit drift: {len(drifts)} flagged cluster(s)")
            for drift in drifts:
                print(
                    f"  {drift.direction} at {drift.boundary[0]} -> "
                    f"{drift.boundary[1]}: {drift.before_rate:.0%} -> "
                    f"{drift.after_rate:.0%}, "
                    f"{len(drift.cluster)} member(s) "
                    f"({', '.join(drift.seams)}) — "
                    "see 'repro analyze' for detail"
                )
    live = {
        system: snapshot
        for system, snapshot in metrics_snapshot.items()
        if snapshot
    }
    if live:
        print()
        print("live metrics:")
        for system, snapshot in sorted(live.items()):
            for name, entry in sorted(snapshot.items()):
                if entry.get("kind") == "histogram":
                    value = f"count={entry.get('count', 0)}"
                else:
                    value = f"{entry.get('value', 0)}"
                print(f"  {system}.{name} = {value}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analytics import (
        DEFAULT_MIN_DELTA,
        DEFAULT_WINDOW_SECONDS,
        analyze_ledger,
    )
    from repro.obs import (
        DEFAULT_THRESHOLD,
        LedgerError,
        check_schema,
        read_ledger,
    )

    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    )
    min_delta = (
        args.min_delta if args.min_delta is not None else DEFAULT_MIN_DELTA
    )
    window_seconds = (
        args.window_seconds
        if args.window_seconds is not None
        else DEFAULT_WINDOW_SECONDS
    )
    if not 0.0 < threshold <= 1.0:
        print(
            f"bad --threshold {threshold}; expected a Jaccard similarity "
            "in (0, 1]",
            file=sys.stderr,
        )
        return 2
    if not 0.0 < min_delta <= 1.0:
        print(
            f"bad --min-delta {min_delta}; expected a rate change "
            "in (0, 1]",
            file=sys.stderr,
        )
        return 2
    if window_seconds <= 0:
        print(
            f"bad --window-seconds {window_seconds}; expected > 0",
            file=sys.stderr,
        )
        return 2

    try:
        records = read_ledger(args.ledger, tolerate_truncated_tail=True)
        check_schema(records, args.ledger)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = analyze_ledger(
        records,
        by=args.by,
        window_seconds=window_seconds,
        threshold=threshold,
        min_delta=min_delta,
    )

    if args.json:
        print(json.dumps(report.to_json(), indent=1, sort_keys=True))
    elif not args.quiet:
        print(
            f"ledger: {args.ledger} — {len(records)} runs, "
            f"{len(report.windows)} {args.by} window(s)"
        )
        for window in report.windows:
            print(
                f"  window #{window.index} [{window.label}]: "
                f"{len(window.records)} runs, "
                f"{len(window.items())} failure item(s), "
                f"{_iso(window.start)} .. {_iso(window.end)}"
            )
        print()
        if not report.drifts:
            print(
                f"drift (|rate change| >= {min_delta:g}): none — every "
                "cluster's occurrence rate is stable across boundaries"
            )
        else:
            print(f"drift (|rate change| >= {min_delta:g}): {len(report.drifts)}")
            for drift in report.drifts:
                print(
                    f"  {drift.direction.upper():9} "
                    f"{drift.boundary[0]} -> {drift.boundary[1]}: "
                    f"{drift.before_rate:.0%} -> {drift.after_rate:.0%} "
                    f"({drift.delta:+.0%}), seams: {', '.join(drift.seams)}"
                )
                for member in drift.cluster[:3]:
                    print(f"      {member}")
                if len(drift.cluster) > 3:
                    print(f"      ... {len(drift.cluster) - 3} more")
        if report.evolution:
            print()
            print(f"cluster evolution: {len(report.evolution)} event(s)")
            for event in report.evolution:
                print(
                    f"  {event.kind.upper():6} at "
                    f"{event.boundary[0]} -> {event.boundary[1]}: "
                    f"{len(event.cluster)} member(s), e.g. "
                    f"{event.cluster[0]}"
                )
    if args.gate and report.drifts:
        if not args.quiet:
            print(
                f"[analyze] {len(report.drifts)} drifted cluster(s) — "
                "exiting 5 (--gate)",
                file=sys.stderr,
            )
        return 5
    return 0


def _cmd_triage(args: argparse.Namespace) -> int:
    from repro.analytics import TriageError, triage_checkpoint, write_triage
    from repro.campaign import CheckpointError

    baseline = _load_baseline(args.baseline)
    if baseline is None:
        return 2

    try:
        report, delta, proposed = triage_checkpoint(
            args.checkpoint,
            baseline,
            fingerprints_path=args.fingerprints,
            shrink=not args.no_shrink,
        )
    except (TriageError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    paths = write_triage(args.out_dir, report, delta, proposed)
    if args.json:
        payload = report.to_json()
        payload["artifacts"] = paths
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(report.to_text())
        print()
        print(f"baseline delta:    {paths['delta']} ({len(delta)} entries)")
        print(f"proposed baseline: {paths['proposed']} ({len(proposed)} entries)")
    if not report.all_reproduced:
        if not args.quiet:
            print(
                "[triage] some novel fingerprints failed to reproduce "
                "from their provenance coordinates — exiting 1 (either "
                "the determinism contract broke, or checkpoint and "
                "build are from different campaigns)",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.dataset.io import dump_failures
    from repro.dataset.opensource import load_failures

    path = dump_failures(load_failures(), args.path)
    print(f"wrote 120 CSI failure records to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "study":
        return _cmd_study()
    if args.command == "crosstest":
        return _cmd_crosstest(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "confcheck":
        return _cmd_confcheck(args)
    if args.command == "gaps":
        return _cmd_gaps(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "triage":
        return _cmd_triage(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
