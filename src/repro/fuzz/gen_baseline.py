"""Regenerate the committed ``known_discrepancies.json`` baseline.

Usage::

    python -m repro.fuzz.gen_baseline [OUT_PATH]

The baseline is the union of every discrepancy mechanism the repo
already knows about:

* the curated §8 corpus, run under the stock conf *and* under each
  deployment conf the fuzzer's ``CONF_MENU`` can draw — so known
  mechanisms dedup cleanly whatever conf a campaign lands on; and
* the canonical smoke campaign (``SMOKE_SEED``/``SMOKE_BUDGET``,
  extended a few rounds past the CI budget) — so the ``fuzz-smoke``
  CI job's findings are, by construction, all known.

Everything here is deterministic, so regenerating on any machine
produces the identical file; CI relies on that to assert zero novel
fingerprints at the smoke seed.
"""

from __future__ import annotations

import sys

from repro.crosstest.fingerprint import conf_label
from repro.crosstest.report import run_crosstest
from repro.crosstest.values import generate_inputs
from repro.fuzz.dedup import Baseline, default_baseline_path
from repro.fuzz.generators import CONF_MENU
from repro.fuzz.scheduler import FuzzConfig, run_fuzz

__all__ = ["SMOKE_SEED", "SMOKE_BUDGET", "SMOKE_BATCH", "build_baseline"]

#: the canonical CI smoke campaign parameters (see `make fuzz-smoke`).
#: The baseline campaign runs the same seed/batch for BASELINE_BUDGET
#: candidates; a smoke run is a strict prefix of it, so every smoke
#: fingerprint is in the baseline.
SMOKE_SEED = 11
SMOKE_BUDGET = 96
SMOKE_BATCH = 16
BASELINE_BUDGET = 256


def build_baseline(progress=print) -> Baseline:
    baseline = Baseline.empty()
    inputs = generate_inputs()
    confs: list[dict[str, object]] = [dict(conf) for conf in CONF_MENU]
    for conf in confs:
        report = run_crosstest(inputs, conf_overrides=conf, jobs=None)
        label = conf_label(conf)
        added = sum(
            baseline.add(hit.fingerprint)
            for hit in report.fingerprints(label).values()
        )
        progress(
            f"curated corpus under conf [{label or 'stock'}]: "
            f"+{added} fingerprints ({len(baseline)} total)"
        )
    config = FuzzConfig(
        seed=SMOKE_SEED,
        budget=BASELINE_BUDGET,
        batch=SMOKE_BATCH,
        jobs=None,
        shrink=False,
    )
    result = run_fuzz(config, Baseline.empty())
    added = sum(
        baseline.add(finding.fingerprint)
        for finding in result.findings.values()
    )
    progress(
        f"smoke campaign seed={SMOKE_SEED} budget={BASELINE_BUDGET}: "
        f"+{added} fingerprints ({len(baseline)} total)"
    )
    return baseline


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else default_baseline_path()
    baseline = build_baseline()
    baseline.save(path)
    print(f"wrote {len(baseline)} fingerprints to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
