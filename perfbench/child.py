"""The benchmark's child processes; :mod:`perfbench.run` starts them.

Each mode runs in a fresh interpreter so that set-up is paid the way a
one-shot CLI run pays it, and so that peak memory and references stay
out of each other's numbers::

    python3 -m perfbench.child setup     W --seed N --t0 T --dir D --out F
    python3 -m perfbench.child measure   W --seed N --t0 T --dir D --out F
                                         --seconds S [--reference R]
                                         [--trace]
    python3 -m perfbench.child reference W --seed N --dir D --out F
                                         [--batches B]

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process (a system-wide monotonic clock on Linux), so set-up time
includes interpreter start. Results are written to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from perfbench import workloads
from perfbench.spans import Recorder


def _jobs() -> int:
    return os.cpu_count() or 1


def _setup(args: argparse.Namespace) -> dict:
    if args.workload == "campaign":
        result = workloads.measure_campaign(
            args.seed, _jobs(), 0.0, args.t0, args.dir
        )
    else:
        workload = workloads.Passes(args.workload, args.seed, _jobs())
        result = workloads.measure_passes(workload, 0.0, args.t0, None)
    return {
        "setup_s": result["setup_s"],
        "setup_rss_mb": result["setup_rss_mb"],
    }


def _measure(args: argparse.Namespace) -> dict:
    rec = None
    if args.trace:
        from perfbench import layers

        spans_dir = os.path.join(args.dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        rec = Recorder(spans_dir)
        layers.install(rec)
    if args.workload == "campaign":
        result = workloads.measure_campaign(
            args.seed, _jobs(), args.seconds, args.t0, args.dir, rec
        )
    else:
        render_span = (
            (lambda: rec.span("report.render"))
            if rec is not None
            else contextlib.nullcontext
        )
        workload = workloads.Passes(
            args.workload, args.seed, _jobs(), render_span
        )
        result = workloads.measure_passes(
            workload, args.seconds, args.t0, args.reference, rec
        )
    result["peak_rss_mb"] = workloads.peak_rss_mb()
    result["host"] = workloads.host_stamp(_jobs())
    if rec is not None:
        from perfbench import spans, split

        layer_split = split.unit_split(
            result["units"],
            rec.spans,
            rec.counts,
            spans.load_worker_files(rec.out_dir),
        )
        result["split"] = {str(k): v for k, v in layer_split.items()}
    return result


def _reference(args: argparse.Namespace) -> dict:
    if args.workload == "campaign":
        service = workloads.campaign_service(
            args.seed, 1, args.dir, max_batches=args.batches
        )
        import asyncio

        asyncio.run(service.run())
        return {
            str(k): v for k, v in workloads.campaign_batches(args.dir).items()
        }
    return workloads.Passes(args.workload, args.seed, 1).plain()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("mode", choices=("setup", "measure", "reference"))
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, default=0.0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference")
    parser.add_argument("--batches", type=int)
    args = parser.parse_args(argv)
    os.makedirs(args.dir, exist_ok=True)
    mode = {"setup": _setup, "measure": _measure, "reference": _reference}
    result = mode[args.mode](args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
