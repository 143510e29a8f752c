"""Run one benchmark workload; print its report, then one JSON line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``:
set-up is sampled in ``SETUP_SAMPLES`` fresh processes (the measuring
process is one of them) and the median is reported; then the measuring
process runs units for ``--seconds`` seconds. ``--trace 1`` splits the
seconds between an untraced process and one with every layer wrapped
(:mod:`perfbench.layers`), and reports the per-layer metrics.

Every unit's output is checked against a reference computed through
the plain path in a separate process. References, the exact counts of
earlier traced runs and a history of results are kept under
``.perfbench/`` in the checkout, keyed by a hash of ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("matrix", "chaos-smoke", "campaign")
#: set-up samples per run; the measuring process's own set-up is one
SETUP_SAMPLES = 3
#: the whole run must end well inside the 180 s every run is allowed
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _code_hash() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


class Runner:
    """Starts child processes in their own session, within a deadline."""

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
        )
        # the ledger's git probe must not look above the checkout
        self.env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
        self._count = 0
        #: working directory of the latest child
        self.last_dir = ""

    def __call__(self, mode: str, workload: str, seed: int, *extra) -> dict:
        self._count += 1
        label = f"{self._count:02d}-{mode}"
        out = os.path.join(self.run_dir, f"{label}.json")
        log = os.path.join(self.run_dir, f"{label}.log")
        self.last_dir = os.path.join(self.run_dir, label)
        cmd = [
            sys.executable, "-m", "perfbench.child", mode, workload,
            "--seed", str(seed),
            "--dir", self.last_dir,
            "--out", out,
            *map(str, extra),
        ]
        with open(log, "w", encoding="utf-8") as handle:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [*cmd, "--t0", repr(t0)],
                cwd=ROOT,
                env=self.env,
                stdout=handle,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                code = proc.wait(max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # pool workers share the child's session: none may outlive it
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if code != 0:
            with open(log, encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-2000:]
            reason = "timed out" if code is None else f"exited {code}"
            raise BenchError(f"{mode} {workload} {reason}:\n{tail}")
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


class Store:
    """References, exact counts and history under ``.perfbench/``."""

    def __init__(self, code: str) -> None:
        self.code = code
        self.refs = os.path.join(WORK, "ref", code)
        os.makedirs(self.refs, exist_ok=True)

    def reference(self, run: Runner, workload: str, seed: int) -> str:
        """Path of the plain-path reference for ``matrix``/``chaos-smoke``
        (the matrix ignores its seed, so one reference serves all)."""
        key = "matrix" if workload == "matrix" else f"{workload}-{seed}"
        path = os.path.join(self.refs, f"{key}.json")
        if not os.path.exists(path):
            payload = run("reference", workload, seed)
            _write_json(path, payload)
        return path

    def campaign_reference(
        self, run: Runner, seed: int, batches: int
    ) -> dict[str, str]:
        """Batch outputs of a ``jobs=1`` campaign with this seed, at
        least ``batches`` batches long; a longer cached one serves too,
        since a batch's outputs never depend on later batches."""
        path = os.path.join(self.refs, f"campaign-{seed}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                cached = json.load(handle)
            if len(cached) >= batches:
                return cached
        payload = run("reference", "campaign", seed, "--batches", batches)
        _write_json(path, payload)
        return payload

    def exact(self, key: str, counts: dict[str, dict]) -> list[str]:
        """Compare exact counts with every earlier run of this code and
        key, remember the union, and return the counts that drifted."""
        path = os.path.join(WORK, "exact", self.code, f"{key}.json")
        known: dict[str, dict] = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                known = json.load(handle)
        drift = []
        for unit, values in counts.items():
            for name, value in values.items():
                before = known.get(unit, {}).get(name)
                if before is not None and before != value:
                    drift.append(f"{name} (unit {unit}: {before} -> {value})")
            known.setdefault(unit, {}).update(values)
        _write_json(path, known)
        return drift

    def history(self, workload: str, trace: int) -> list[dict]:
        path = os.path.join(WORK, "history.jsonl")
        if not os.path.exists(path):
            return []
        with open(path, encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle if line.strip()]
        return [
            row
            for row in rows
            if row["workload"] == workload and row["trace"] == trace
        ]

    def remember(self, row: dict) -> None:
        with open(
            os.path.join(WORK, "history.jsonl"), "a", encoding="utf-8"
        ) as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def _write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    os.replace(tmp, path)


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, never
    below the median: ``(value, percentile)``."""
    ordered = sorted(samples)
    index = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _timed(result: dict) -> list[dict]:
    return [unit for unit in result["units"] if unit["index"] >= 1]


def _check_campaign(run: Runner, store: Store, result: dict, seed: int):
    """Mark each batch that differs from the ``jobs=1`` reference."""
    from perfbench.workloads import campaign_batches

    batches = campaign_batches(result["dir"])
    reference = store.campaign_reference(run, seed, len(batches))
    for unit in result["units"]:
        index = unit["index"]
        if unit["error"] is None and batches.get(index) != reference.get(
            str(index)
        ):
            unit["error"] = "outputs differ from the jobs=1 reference"


def _measure(
    run: Runner, store: Store, args, seconds: float, trace: bool
) -> dict:
    extra = ["--seconds", seconds]
    if args.workload != "campaign":
        reference = store.reference(run, args.workload, args.seed)
        extra += ["--reference", reference]
    if trace:
        extra.append("--trace")
    result = run("measure", args.workload, args.seed, *extra)
    result["dir"] = run.last_dir
    if args.workload == "campaign":
        _check_campaign(run, store, result, args.seed)
    return result


def _tally(results: list[dict]) -> tuple[int, int, list[str]]:
    """Units attempted, units failed, and why each failed."""
    units = [unit for result in results for unit in result["units"]]
    errors = [
        f"unit {unit['index']}: {unit['error']}"
        for unit in units
        if unit["error"] is not None
    ]
    return len(units), len(errors), errors


def end_to_end(run: Runner, store: Store, args) -> tuple[dict, dict]:
    samples = [
        run("setup", args.workload, args.seed)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    result = _measure(run, store, args, args.seconds, trace=False)
    samples.append(result)
    setups = [sample["setup_s"] for sample in samples]
    timed = _timed(result)
    attempted, failed, errors = _tally([result])
    if not timed:
        raise BenchError(f"no timed unit ran: {'; '.join(errors)}")
    walls = [unit["end"] - unit["start"] for unit in timed]
    passed = sum(unit["trials"] for unit in timed if unit["error"] is None)
    tail, percentile = _tail(walls)
    metrics = {
        "trials_per_s": passed / sum(walls),
        "batch_s_p50": statistics.median(walls),
        "batch_s_tail": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(
            sample["setup_rss_mb"] for sample in samples
        ),
    }
    facts = {
        "host": result["host"],
        "units": len(timed),
        "tail_percentile": percentile,
        "setup_samples": setups,
        "end_rss_mb": result["peak_rss_mb"],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "drift": [],
    }
    return metrics, facts


def per_layer(run: Runner, store: Store, args) -> tuple[dict, dict]:
    from perfbench import split

    untraced = _measure(run, store, args, args.seconds / 2, trace=False)
    traced = _measure(run, store, args, args.seconds / 2, trace=True)
    layers = {int(k): v for k, v in traced["split"].items()}
    metrics = split.layer_metrics(
        layers,
        [unit["end"] - unit["start"] for unit in _timed(traced)],
        [unit["end"] - unit["start"] for unit in _timed(untraced)],
    )
    counts = split.exact_counts(layers)
    drift: list[str] = []
    if args.workload == "campaign":
        key = f"campaign-{args.seed}"
        stored = {str(index): values for index, values in counts.items()}
    else:
        # every unit of a one-shot workload does the same work
        key = args.workload
        if args.workload == "chaos-smoke":
            key += f"-{args.seed}"
        first = next(iter(counts.values()), {})
        for index, values in counts.items():
            for name, value in values.items():
                if value != first[name]:
                    drift.append(f"{name} (unit {index}: {value})")
        stored = {"*": first}
    drift += store.exact(key, stored)
    attempted, failed, errors = _tally([untraced, traced])
    facts = {
        "host": traced["host"],
        "units": len(layers),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "drift": drift,
        "split": layers,
        "adds_up": split.adds_up(layers),
    }
    return metrics, facts


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            "perfbench: no program to measure (src/repro is missing); "
            "run from the root of a source checkout",
            file=sys.stderr,
        )
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import report

    store = Store(_code_hash())
    run_dir = os.path.join(
        WORK, "runs", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(run_dir, exist_ok=True)
    run = Runner(run_dir)
    try:
        if args.trace:
            metrics, facts = per_layer(run, store, args)
            wanted = spec["per_layer"]
        else:
            metrics, facts = end_to_end(run, store, args)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    history = store.history(args.workload, args.trace)
    store.remember(
        {
            "workload": args.workload,
            "trace": args.trace,
            "seed": args.seed,
            "code": store.code,
            "host": facts["host"],
            "metrics": metrics,
        }
    )
    correct = facts["failed"] == 0 and not facts["drift"]
    print("\n".join(report.render(args, spec, metrics, facts, history)))
    line = {
        "correct": correct,
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": {
            entry["name"]: {
                "value": metrics[entry["name"]],
                "unit": entry["unit"],
            }
            for entry in wanted
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
