PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: tier1 smoke-crosstest smoke-tests test bench bench-json \
	bench-gate chaos fuzz-smoke fuzz-baseline lint crosstest \
	status-smoke campaign-smoke analytics-smoke

# sub-second sanity tier: the distilled 14-input corpus must still
# reproduce all 15 discrepancy mechanisms (run this before anything
# else — a broken harness fails here in well under a second)
smoke-crosstest:
	$(PYTHON) -m repro.crosstest.smoke

# fast smoke pass over the §8 cross-test engine test suite, including
# the tracing-overhead guard: instrumentation must stay free when
# disabled
smoke-tests:
	$(PYTHON) -m pytest -q tests/crosstest
	$(PYTHON) -m pytest -q benchmarks/test_bench_tracing_overhead.py

# the tier-1 flow: distilled corpus, crosstest tests, then everything
tier1: smoke-crosstest smoke-tests
	$(PYTHON) -m pytest -x -q

test:
	$(PYTHON) -m pytest -q

bench:
	$(PYTHON) -m pytest -q benchmarks

# wall-clock + cache-counter benchmark of the §8 matrix: a jobs=1 leg
# and a real process-pool leg at max(2, cpu_count) workers
bench-json:
	$(PYTHON) -m repro.crosstest.bench BENCH_crosstest.json

# measure fresh, then gate jobs=1 wall time against the committed
# baseline, parallel speedup against break-even (multi-core only),
# and batched-lane speedup against a noise-tolerant 1.3x floor (the
# committed baseline carries the full 2x acceptance bar)
bench-gate:
	$(PYTHON) -m repro.crosstest.bench bench-fresh.json
	$(PYTHON) -m repro.crosstest.benchgate bench-fresh.json \
		--min-batch-speedup 1.3

# the CI chaos job, locally: seeded fault matrix over the distilled
# corpus, gated on mis-handled trials, run twice — the fault report
# must be byte-identical
chaos:
	$(PYTHON) -m repro crosstest --corpus smoke --jobs 2 \
		--faults smoke --fault-seed 1337 --quiet \
		--fault-json fault-report.json --fault-gate
	$(PYTHON) -m repro crosstest --corpus smoke --jobs 4 \
		--faults smoke --fault-seed 1337 --quiet \
		--fault-json fault-report-rerun.json --fault-gate
	diff fault-report.json fault-report-rerun.json

# the CI fuzz-smoke job, locally: the canonical fixed-seed campaign,
# gated on novel fingerprints (exit 4 = a discrepancy the committed
# baseline doesn't know), run at two worker counts — the fingerprint
# JSONL must be byte-identical or the campaign lost determinism
fuzz-smoke:
	$(PYTHON) -m repro fuzz --seed 11 --budget 96 --batch 16 \
		--jobs 2 --quiet --out-dir fuzz-smoke-j2
	$(PYTHON) -m repro fuzz --seed 11 --budget 96 --batch 16 \
		--jobs 4 --quiet --out-dir fuzz-smoke-j4
	diff fuzz-smoke-j2/fingerprints.jsonl fuzz-smoke-j4/fingerprints.jsonl

# the CI status-smoke step, locally: record a plain and a
# fault-injected smoke run into a fresh campaign ledger, then render
# the observatory over it — `repro status` refuses the ledger (exit 2)
# if its schema version drifted from the reader's
status-smoke:
	rm -f ledger-smoke.jsonl
	$(PYTHON) -m repro crosstest --corpus smoke --jobs 2 --quiet \
		--ledger ledger-smoke.jsonl
	$(PYTHON) -m repro crosstest --corpus smoke --jobs 2 --quiet \
		--faults smoke --fault-seed 1337 \
		--ledger ledger-smoke.jsonl
	$(PYTHON) -m repro status --ledger ledger-smoke.jsonl

# the CI campaign-smoke job, locally: an uninterrupted 3-batch
# campaign vs. one "killed" after batch 1 (--max-batches 1, jobs=2)
# and resumed from its checkpoint for the remaining 2 (jobs=4). Before
# the resume, half a commit record is appended to the checkpoint, as a
# kill mid-append leaves it: resume must drop it. The fingerprint JSONL
# must be byte-identical and the ledgers canonically identical, or
# checkpoint/resume broke the determinism contract. Exit 4 (a novel
# fingerprint) fails the target, same as fuzz-smoke.
campaign-smoke:
	rm -rf campaign-smoke && mkdir -p campaign-smoke
	$(PYTHON) -m repro campaign --seed 11 --batch 16 --jobs 2 \
		--max-batches 3 --quiet \
		--checkpoint campaign-smoke/clean.ckpt.json \
		--fingerprints campaign-smoke/clean.fp.jsonl \
		--ledger campaign-smoke/clean.ledger.jsonl
	$(PYTHON) -m repro campaign --seed 11 --batch 16 --jobs 2 \
		--max-batches 1 --quiet \
		--checkpoint campaign-smoke/resumed.ckpt.json \
		--fingerprints campaign-smoke/resumed.fp.jsonl \
		--ledger campaign-smoke/resumed.ledger.jsonl
	$(PYTHON) -c 'import sys; p = sys.argv[1]; r = open(p, "rb").readlines()[-1]; open(p, "ab").write(r[: len(r) // 2])' \
		campaign-smoke/resumed.ckpt.json
	$(PYTHON) -m repro campaign --seed 11 --batch 16 --jobs 4 \
		--max-batches 3 --quiet \
		--checkpoint campaign-smoke/resumed.ckpt.json \
		--fingerprints campaign-smoke/resumed.fp.jsonl \
		--ledger campaign-smoke/resumed.ledger.jsonl
	diff campaign-smoke/clean.fp.jsonl campaign-smoke/resumed.fp.jsonl
	$(PYTHON) -m repro.obs.ledgerdiff \
		campaign-smoke/clean.ledger.jsonl \
		campaign-smoke/resumed.ledger.jsonl

# the CI analytics-smoke job, locally: a synthetic two-commit drift
# ledger must flag the regression (and `repro analyze --gate` must
# exit 5 on it), then a seeded exit-4 campaign must round-trip through
# auto-triage — novel key reproduced from its checkpoint coordinates,
# shrunk, and the proposed baseline silences the re-run back to exit 0
analytics-smoke:
	rm -rf analytics-smoke
	$(PYTHON) -m repro.analytics.smoke analytics-smoke

# regenerate src/repro/fuzz/known_discrepancies.json (deterministic:
# any machine produces the identical file)
fuzz-baseline:
	$(PYTHON) -m repro.fuzz.gen_baseline

# ruff + mypy over the packages the lint CI job covers (needs the
# 'lint' extra: pip install ruff mypy)
lint:
	ruff check src/repro/faults src/repro/tracing
	ruff format --check src/repro/faults
	mypy src/repro/faults src/repro/tracing

# the full 10,128-trial matrix, parallel, with telemetry on stderr
crosstest:
	$(PYTHON) -m repro crosstest
