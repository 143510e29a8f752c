PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: tier1 smoke-crosstest smoke-tests test bench bench-gate \
	perfbench-tests chaos fuzz-smoke fuzz-baseline baseline-check lint \
	crosstest status-smoke campaign-smoke analytics-smoke

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

# same-runner regression gate on perfbench's matrix, campaign and
# chaos-smoke workloads: for each, BASE (default: the merge base with
# origin/main) runs 3 times in a throwaway git worktree, then this tree
# (uncommitted edits included) runs once, graded against only those 3
# runs. Both sides use this tree's perfbench/ and BENCHMARK.json, so one
# benchmark measures both programs. perfbench exits 0 even on a
# REGRESSED or FAIL verdict, so the target reads the verdict lines of
# the three reports (left one after the other in bench-gate.md) and
# fails unless all three say PASS. The developer's own
# .perfbench/history.jsonl is never read or written.
BASE ?= $(shell git merge-base HEAD origin/main 2>/dev/null)
bench-gate:
	@set -e; gate=.perfbench/gate; \
	base=$$(git rev-parse --verify --quiet "$(BASE)^{commit}") || { \
		echo "bench-gate: no base revision '$(BASE)'; pass BASE=REV" >&2; \
		exit 2; }; \
	rm -rf $$gate bench-gate.md; git worktree prune; mkdir -p $$gate/head; \
	trap 'git worktree remove --force $$gate/base 2>/dev/null; \
		rm -rf $$gate; git worktree prune' EXIT; \
	git worktree add --quiet --detach $$gate/base $$base; \
	rm -rf $$gate/base/perfbench; \
	cp -R perfbench BENCHMARK.json $$gate/base/; \
	cp -R src perfbench BENCHMARK.json $$gate/head/; \
	for workload in matrix campaign chaos-smoke; do \
		run="$(PYTHON) perfbench/run.py --workload $$workload --seed 1 \
			--seconds 10 --trace 0"; \
		for i in 1 2 3; do \
			(cd $$gate/base && $$run) > $$gate/base.md; \
			echo "bench-gate: $$workload: base $$base run $$i/3:" \
				"$$(grep '^> \*\*VERDICT' $$gate/base.md)"; \
		done; \
		mkdir -p $$gate/head/.perfbench; \
		cp $$gate/base/.perfbench/history.jsonl $$gate/head/.perfbench/; \
		(cd $$gate/head && $$run) > $$gate/head.md; \
		cat $$gate/head.md; \
		cat $$gate/head.md >> bench-gate.md; echo >> bench-gate.md; \
	done; \
	passed=$$(grep -c '^> \*\*VERDICT\*\*: PASS' bench-gate.md || true); \
	test "$$passed" -eq 3

# the benchmark's own tests (perfbench/, outside tier-1's testpaths):
# result schema, a split that adds up, and the default path (lanes,
# process pool, plan cache) rendering byte-identical to the plain path
# on the full 10,128-trial matrix
perfbench-tests:
	PYTHONPATH=src:. $(PYTHON) -m pytest -q perfbench/tests

# the CI chaos job's gates, locally: seeded fault matrix over the
# distilled corpus, gated on mis-handled trials, run at jobs 2, 4 and 1
# (verdicts from pool workers, then from this process) and traced —
# every fault report must be byte-identical. Then the sweep over the
# other builtin plans, which reach the Hive, serde and HDFS sites: not
# gated on mis-handled trials (torn writes and stale reads cause them
# by design), but each plan's report must be identical at jobs 2 and 1
chaos:
	$(PYTHON) -m repro crosstest --corpus smoke --jobs 2 \
		--faults smoke --fault-seed 1337 --quiet \
		--fault-json fault-report.json --fault-gate
	$(PYTHON) -m repro crosstest --corpus smoke --jobs 4 \
		--faults smoke --fault-seed 1337 --quiet \
		--fault-json fault-report-rerun.json --fault-gate
	diff fault-report.json fault-report-rerun.json
	$(PYTHON) -m repro crosstest --corpus smoke --jobs 1 \
		--faults smoke --fault-seed 1337 --quiet \
		--fault-json fault-report-j1.json --fault-gate
	diff fault-report.json fault-report-j1.json
	rm -rf chaos-trace
	$(PYTHON) -m repro crosstest --corpus smoke --jobs 2 \
		--faults smoke --fault-seed 1337 --quiet \
		--fault-json fault-report-traced.json --fault-gate \
		--trace-dir chaos-trace
	diff fault-report.json fault-report-traced.json
	$(PYTHON) -m repro trace summarize chaos-trace
	set -e; for plan in metastore-brownout torn-writes stale-metastore \
			chaos; do \
		$(PYTHON) -m repro crosstest --corpus smoke --jobs 2 \
			--faults $$plan --fault-seed 7 --quiet \
			--fault-json fault-report-$$plan.json; \
		$(PYTHON) -m repro crosstest --corpus smoke --jobs 1 \
			--faults $$plan --fault-seed 7 --quiet \
			--fault-json fault-report-$$plan-j1.json; \
		diff fault-report-$$plan.json fault-report-$$plan-j1.json; \
	done

# the CI fuzz-smoke job, locally: the canonical fixed-seed campaign,
# gated on novel fingerprints (exit 4 = a discrepancy the committed
# baseline doesn't know), run at jobs 2 and 4 on process pools and at
# jobs 1 in this process — the fingerprint JSONL must be byte-identical
# or the campaign lost determinism
fuzz-smoke:
	$(PYTHON) -m repro fuzz --seed 11 --budget 96 --batch 16 \
		--jobs 2 --quiet --out-dir fuzz-smoke-j2
	$(PYTHON) -m repro fuzz --seed 11 --budget 96 --batch 16 \
		--jobs 4 --quiet --out-dir fuzz-smoke-j4
	diff fuzz-smoke-j2/fingerprints.jsonl fuzz-smoke-j4/fingerprints.jsonl
	$(PYTHON) -m repro fuzz --seed 11 --budget 96 --batch 16 \
		--jobs 1 --quiet --out-dir fuzz-smoke-j1
	diff fuzz-smoke-j2/fingerprints.jsonl fuzz-smoke-j1/fingerprints.jsonl

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

# the committed baseline must regenerate byte for byte: a change that
# moves any fingerprint of the curated corpus or the smoke campaign
# fails here, not silently in the novelty gate
baseline-check:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(PYTHON) -m repro.fuzz.gen_baseline "$$out"; \
	cmp "$$out" src/repro/fuzz/known_discrepancies.json

# ruff + mypy over the packages the lint CI job covers (needs the
# 'lint' extra: pip install ruff mypy)
lint:
	ruff check src/repro/faults src/repro/tracing
	ruff format --check src/repro/faults
	mypy src/repro/faults src/repro/tracing

# the full 10,128-trial matrix, parallel, with telemetry on stderr
crosstest:
	$(PYTHON) -m repro crosstest
