"""The fuzz campaign scheduler: generate → execute → observe → mutate.

A campaign runs in *rounds*. Each round draws a deployment conf, fills
a batch with fresh candidates and mutations of coverage-promoted seeds,
and fans the batch through :mod:`crosstest.executor` at whatever
``--jobs``/pool setting the caller picked, untraced. A candidate's
oracle failures, fingerprints and catalog matches are computed in the
worker that ran it (:func:`_analyze_candidate`), and the parent derives
each trial's coverage features from its outcome and the round's conf.
It merges both in the (byte-identical) trial order regardless of
worker count, so everything layered on top — coverage promotion,
fingerprint collection, dedup, shrinking — replays exactly for a fixed
``(seed, budget, baseline)``.

The budget is counted in *candidates generated*, not wall-clock: a time
budget would make the campaign's output depend on machine speed and
worker count, which is precisely what the determinism guarantee
forbids.

**Resumable state.** Everything a campaign carries between rounds lives
in one :class:`CampaignState`, and one round is one :func:`run_round`
call that advances it. The state round-trips through JSON
(:meth:`CampaignState.to_json` / :meth:`CampaignState.from_json`) *by
provenance, not by value*: a promoted seed or a finding's witness is
stored as its ``(round, slot, input_id)`` coordinates and regenerated
through the same BLAKE2b-seeded generator calls that built it the
first time, so a checkpoint is pure JSON no matter what Python values
(decimals, timestamps, nested rows) the inputs carry — and a restored
campaign is *exactly* the campaign that was stopped. The snapshot
still grows with every coverage feature and finding (megabytes after a
few dozen batches), so :meth:`CampaignState.delta_json` gives one
round's changes alone, which :mod:`repro.campaign.checkpoint` journals
per batch instead of the whole snapshot.
:mod:`repro.campaign` builds the always-on service on top of this;
:func:`run_fuzz` is the bounded one-shot loop the ``repro fuzz`` CLI
has always exposed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial

from repro.crosstest.classify import found_discrepancies
from repro.crosstest.executor import (
    CrossTestMetrics,
    WorkerPoolHandle,
    execute,
    resolve_jobs,
)
from repro.crosstest.fingerprint import (
    Fingerprint,
    conf_label,
    run_fingerprints,
)
from repro.crosstest.harness import Trial
from repro.crosstest.oracles import all_failures
from repro.crosstest.plans import ALL_PLANS, FORMATS
from repro.crosstest.values import TestInput, generate_inputs
from repro.fuzz.coverage import CoverageMap, trial_features
from repro.fuzz.dedup import Baseline
from repro.fuzz.generators import (
    FUZZ_ID_BASE,
    gen_candidate,
    gen_conf,
    mutate,
)
from repro.fuzz.shrink import shrink_input
from repro.tracing.core import Span

__all__ = [
    "FuzzConfig",
    "FuzzFinding",
    "FuzzResult",
    "CampaignState",
    "RoundOutcome",
    "run_round",
    "run_fuzz",
    "trace_witness",
]

from hashlib import blake2b


def _hash_int(*parts: object) -> int:
    key = "\x1f".join(str(part) for part in parts).encode("utf-8")
    return int.from_bytes(blake2b(key, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class FuzzConfig:
    """Everything that determines a campaign's output."""

    seed: int = 0
    #: total candidates to generate (the determinism-safe budget unit)
    budget: int = 64
    #: candidates per round; one round = one executor submission
    batch: int = 16
    jobs: int | None = 1
    pool: str = "auto"
    plans: tuple = tuple(ALL_PLANS)
    formats: tuple = tuple(FORMATS)
    #: seed the mutation pool with the curated corpus (parents only —
    #: corpus inputs are never executed, so "generators alone" holds
    #: when this is off, which is the default)
    use_corpus: bool = False
    #: which corpus seeds the pool when ``use_corpus`` is on: the full
    #: 422-input §8 corpus, or the coverage-distilled smoke subset
    corpus: str = "full"
    #: shrink novel findings after the budget is exhausted
    shrink: bool = True

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.corpus not in ("full", "smoke"):
            raise ValueError(
                f"corpus must be 'full' or 'smoke', got {self.corpus!r}"
            )

    def signature(self) -> dict:
        """The determinism-relevant subset of the config: two campaigns
        with equal signatures emit identical batches. ``jobs``/``pool``
        are runtime knobs (byte-identity across them is the executor's
        guarantee), ``budget``/``shrink`` only bound the one-shot loop —
        none of them belong in a checkpoint's compatibility check."""
        return {
            "seed": self.seed,
            "batch": self.batch,
            "plans": [plan.name for plan in self.plans],
            "formats": list(self.formats),
            "use_corpus": self.use_corpus,
            "corpus": self.corpus,
        }


@dataclass
class FuzzFinding:
    """One discrepancy fingerprint the campaign witnessed."""

    fingerprint: Fingerprint
    witness: TestInput
    conf_overrides: dict[str, object]
    round_index: int
    failure_count: int = 0
    novel: bool = False
    shrunk: TestInput | None = None

    def _input_json(self, test_input: TestInput) -> dict:
        return {
            "input_id": test_input.input_id,
            "type_text": test_input.type_text,
            "sql_literal": test_input.sql_literal,
            "valid": test_input.valid,
            "description": test_input.description,
        }

    def to_json(self) -> dict:
        minimal = self.shrunk if self.shrunk is not None else self.witness
        return {
            "fingerprint": self.fingerprint.to_json(),
            "key": self.fingerprint.key,
            "novel": self.novel,
            "round": self.round_index,
            "failures": self.failure_count,
            "conf_overrides": {
                key: str(value)
                for key, value in sorted(self.conf_overrides.items())
            },
            "witness": self._input_json(self.witness),
            "shrunk": self._input_json(minimal),
        }


@dataclass
class FuzzResult:
    """Everything a campaign produced, in deterministic order."""

    config: FuzzConfig
    rounds: int
    candidates: int
    trials_run: int
    coverage: CoverageMap
    #: every distinct fingerprint of the campaign, key → finding
    findings: dict[str, FuzzFinding] = field(default_factory=dict)
    #: catalog numbers rediscovered behaviourally by generated inputs
    rediscovered: tuple[int, ...] = ()

    @property
    def novel_findings(self) -> list[FuzzFinding]:
        return [
            self.findings[key]
            for key in sorted(self.findings)
            if self.findings[key].novel
        ]

    @property
    def known_count(self) -> int:
        return sum(1 for f in self.findings.values() if not f.novel)

    def fingerprint_records(self) -> list[dict]:
        """One JSON record per distinct fingerprint, key-sorted."""
        records = []
        for key in sorted(self.findings):
            finding = self.findings[key]
            records.append(
                {
                    "key": key,
                    "fingerprint": finding.fingerprint.to_json(),
                    "novel": finding.novel,
                    "failures": finding.failure_count,
                    "round": finding.round_index,
                }
            )
        return records

    def ledger_results(self) -> dict:
        """The campaign's deterministic observations, ledger-shaped.

        Everything here is a pure function of ``(seed, budget,
        baseline)`` — byte-identical at any ``--jobs``/pool setting —
        so it lives in a ledger record's reproducible section rather
        than its volatile ``env``.
        """
        return {
            "trials": self.trials_run,
            "rounds": self.rounds,
            "candidates": self.candidates,
            "coverage_features": len(self.coverage),
            "fingerprints": sorted(self.findings),
            "novel": sorted(
                key
                for key, finding in self.findings.items()
                if finding.novel
            ),
            "rediscovered": list(self.rediscovered),
        }

    def to_json(self) -> dict:
        """What ``repro fuzz --json`` prints: the campaign's counts and
        its novel findings."""
        return {
            "seed": self.config.seed,
            "budget": self.config.budget,
            "rounds": self.rounds,
            "candidates": self.candidates,
            "trials": self.trials_run,
            "coverage_features": len(self.coverage),
            "distinct_fingerprints": len(self.findings),
            "known_fingerprints": self.known_count,
            "novel": [finding.to_json() for finding in self.novel_findings],
            "rediscovered": list(self.rediscovered),
        }

    def summary_lines(self) -> list[str]:
        """What ``repro fuzz`` prints without ``--json``."""
        novel = self.novel_findings
        lines = [
            f"fuzz: seed={self.config.seed} budget={self.config.budget} "
            f"rounds={self.rounds} candidates={self.candidates} "
            f"trials={self.trials_run}",
            f"coverage: {len(self.coverage)} features; "
            f"fingerprints: {len(self.findings)} distinct "
            f"({self.known_count} known, {len(novel)} novel)",
            "rediscovered known discrepancies: "
            + (
                ", ".join(f"#{n}" for n in self.rediscovered)
                if self.rediscovered
                else "none"
            ),
        ]
        # fingerprints that differ only in format/plan pair render the
        # same mechanism line — fold them and count the variants
        rendered: dict[tuple[str, str], int] = {}
        for finding in novel:
            fingerprint = finding.fingerprint
            minimal = (
                finding.shrunk
                if finding.shrunk is not None
                else finding.witness
            )
            head = (
                f"  NOVEL {fingerprint.oracle} {fingerprint.type_shape} "
                f"[{fingerprint.evidence}]"
                + (f" conf={fingerprint.conf}" if fingerprint.conf else "")
            )
            repro = f"    repro: {minimal.type_text} = {minimal.sql_literal}"
            rendered[(head, repro)] = rendered.get((head, repro), 0) + 1
        for (head, repro), count in rendered.items():
            lines.append(head + (f" x{count}" if count > 1 else ""))
            lines.append(repro)
        return lines


def _build_candidate(
    config: FuzzConfig,
    round_index: int,
    slot: int,
    input_id: int,
    seed_pool: list[TestInput],
) -> TestInput:
    """One batch slot's candidate: a fresh generation, or a mutation of
    a promoted seed. A pure function of ``(config signature, round,
    slot, input_id, pool contents)`` — the property checkpoint
    restoration leans on to regenerate inputs from provenance alone."""
    use_mutation = (
        seed_pool
        and round_index > 0
        and _hash_int(config.seed, round_index, slot, "mutate?") % 3 == 0
    )
    if use_mutation:
        parent = seed_pool[
            _hash_int(config.seed, round_index, slot, "parent")
            % len(seed_pool)
        ]
        return mutate(config.seed, round_index, slot, input_id, parent)
    return gen_candidate(config.seed, round_index, slot, input_id)


def _build_batch(
    config: FuzzConfig,
    round_index: int,
    batch_size: int,
    next_id: int,
    seed_pool: list[TestInput],
) -> list[TestInput]:
    """One round's candidates: fresh generations plus seed mutations."""
    return [
        _build_candidate(
            config, round_index, slot, next_id + slot, seed_pool
        )
        for slot in range(batch_size)
    ]


def _corpus_pool(config: FuzzConfig) -> list[TestInput]:
    """The curated inputs that pre-seed the mutation pool (never
    executed, so their ids — all ``< FUZZ_ID_BASE`` — never reach a
    trial)."""
    if not config.use_corpus:
        return []
    if config.corpus == "smoke":
        from repro.crosstest.smoke import smoke_inputs

        return list(smoke_inputs())
    return list(generate_inputs())


@dataclass
class RoundOutcome:
    """What one executed round contributed, in deterministic order."""

    #: the round that just ran (``state.round_index`` has advanced past it)
    round_index: int
    #: candidates generated this round
    candidates: int
    #: trials executed this round (candidates × plans × formats)
    trials: int
    #: every fingerprint key witnessed this round, sorted
    witnessed: tuple[str, ...] = ()
    #: the subset of ``witnessed`` first seen this round, sorted
    new_keys: tuple[str, ...] = ()
    #: the subset of ``new_keys`` absent from the baseline, sorted
    novel_keys: tuple[str, ...] = ()
    #: inputs promoted into the mutation pool this round
    promoted: int = 0
    #: catalog numbers first rediscovered this round, sorted
    rediscovered: tuple[int, ...] = ()
    #: campaign-wide coverage feature count after this round
    coverage_features: int = 0
    #: coverage features first seen this round, sorted
    new_features: tuple[str, ...] = ()


@dataclass
class CampaignState:
    """Everything a campaign carries from one round to the next.

    Mutated in place by :func:`run_round`; serialized by provenance via
    :meth:`to_json`/:meth:`from_json` (see the module docstring). The
    ``promoted`` and finding-witness coordinates are the only memory of
    *which* generated inputs mattered — the inputs themselves are
    regenerated on restore, so two states with equal JSON are equal
    campaigns.
    """

    config: FuzzConfig
    coverage: CoverageMap = field(default_factory=CoverageMap)
    #: mutation parents: corpus prefix (never serialized by value) plus
    #: every promoted input, in promotion order
    seed_pool: list[TestInput] = field(default_factory=list)
    #: how many leading ``seed_pool`` entries came from the corpus
    corpus_len: int = 0
    #: ``(round, slot, input_id)`` per promoted (non-corpus) pool entry
    promoted: list[tuple[int, int, int]] = field(default_factory=list)
    pool_ids: set[int] = field(default_factory=set)
    findings: dict[str, FuzzFinding] = field(default_factory=dict)
    #: ``(round, slot, input_id)`` of each finding's witness, by key
    witness_provenance: dict[str, tuple[int, int, int]] = field(
        default_factory=dict
    )
    rediscovered: set[int] = field(default_factory=set)
    candidates: int = 0
    round_index: int = 0
    trials_run: int = 0

    @classmethod
    def fresh(cls, config: FuzzConfig) -> "CampaignState":
        corpus = _corpus_pool(config)
        return cls(
            config=config,
            seed_pool=list(corpus),
            corpus_len=len(corpus),
        )

    @property
    def novel_keys(self) -> list[str]:
        return sorted(
            key
            for key, finding in self.findings.items()
            if finding.novel
        )

    # -- serialization (by provenance) ---------------------------------

    def to_json(self) -> dict:
        """Pure-JSON snapshot of the campaign (no pickles, no values).

        Generated inputs are stored as ``(round, slot, input_id)``
        coordinates; :meth:`from_json` replays the generator calls to
        rebuild them, so the snapshot is independent of what Python
        types the inputs carry and byte-stable across interpreter runs.
        """
        return {
            "config": self.config.signature(),
            "candidates": self.candidates,
            "round_index": self.round_index,
            "trials_run": self.trials_run,
            "coverage": sorted(self.coverage.seen),
            "promoted": [list(entry) for entry in self.promoted],
            "findings": [
                self._finding_json(key) for key in sorted(self.findings)
            ],
            "rediscovered": sorted(self.rediscovered),
        }

    def delta_json(self, outcome: RoundOutcome) -> dict:
        """What the round behind ``outcome`` changed, in
        :meth:`to_json`'s shape; call it right after that round.

        The counters are cumulative; ``coverage``, ``promoted``,
        ``findings`` and ``rediscovered`` hold only what the round
        added, and ``failures`` the current count of every finding the
        round witnessed again. Folding each round's delta, in order,
        onto a fresh campaign's snapshot gives :meth:`to_json` — in time
        proportional to the round, not to the campaign.
        """
        new_keys = set(outcome.new_keys)
        first_promoted = len(self.promoted) - outcome.promoted
        return {
            "candidates": self.candidates,
            "round_index": self.round_index,
            "trials_run": self.trials_run,
            "coverage": list(outcome.new_features),
            "promoted": [
                list(entry) for entry in self.promoted[first_promoted:]
            ],
            "findings": [self._finding_json(key) for key in outcome.new_keys],
            "failures": {
                key: self.findings[key].failure_count
                for key in outcome.witnessed
                if key not in new_keys
            },
            "rediscovered": list(outcome.rediscovered),
        }

    def _finding_json(self, key: str) -> dict:
        finding = self.findings[key]
        return {
            "key": key,
            "fingerprint": finding.fingerprint.to_json(),
            "novel": finding.novel,
            "failures": finding.failure_count,
            "round": finding.round_index,
            "witness": list(self.witness_provenance[key]),
        }

    @classmethod
    def from_json(
        cls,
        payload: dict,
        *,
        jobs: int | None = 1,
        pool: str = "auto",
        shrink: bool = False,
    ) -> "CampaignState":
        """Rebuild a campaign from its :meth:`to_json` snapshot.

        ``jobs``/``pool`` are runtime knobs supplied afresh by the
        caller — a campaign checkpointed at ``--jobs 2`` resumes
        byte-identically at ``--jobs 4``, which is exactly what the
        determinism grid pins.
        """
        sig = payload["config"]
        plans_by_name = {plan.name: plan for plan in ALL_PLANS}
        try:
            plans = tuple(plans_by_name[name] for name in sig["plans"])
        except KeyError as exc:
            raise ValueError(f"unknown plan in checkpoint: {exc}") from exc
        config = FuzzConfig(
            seed=int(sig["seed"]),
            budget=max(1, int(payload["candidates"])),
            batch=int(sig["batch"]),
            jobs=jobs,
            pool=pool,
            plans=plans,
            formats=tuple(sig["formats"]),
            use_corpus=bool(sig["use_corpus"]),
            corpus=str(sig["corpus"]),
            shrink=shrink,
        )
        corpus = _corpus_pool(config)
        state = cls(
            config=config,
            seed_pool=list(corpus),
            corpus_len=len(corpus),
            candidates=int(payload["candidates"]),
            round_index=int(payload["round_index"]),
            trials_run=int(payload["trials_run"]),
            rediscovered={int(n) for n in payload.get("rediscovered", ())},
        )
        state.coverage.seen.update(payload.get("coverage", ()))
        # promoted entries regenerate in promotion order: the pool an
        # entry saw at build time is the corpus plus every entry
        # promoted in a *strictly earlier* round (same-round promotions
        # land only after the whole batch was built).
        for entry in payload.get("promoted", ()):
            round_index, slot, input_id = (int(part) for part in entry)
            state.seed_pool.append(
                state._rebuild_input(round_index, slot, input_id)
            )
            state.promoted.append((round_index, slot, input_id))
            state.pool_ids.add(input_id)
        for record in payload.get("findings", ()):
            key = record["key"]
            round_index, slot, input_id = (
                int(part) for part in record["witness"]
            )
            state.findings[key] = FuzzFinding(
                fingerprint=Fingerprint.from_json(record["fingerprint"]),
                witness=state._rebuild_input(round_index, slot, input_id),
                conf_overrides=dict(
                    gen_conf(config.seed, int(record["round"]))
                ),
                round_index=int(record["round"]),
                failure_count=int(record["failures"]),
                novel=bool(record["novel"]),
            )
            state.witness_provenance[key] = (round_index, slot, input_id)
        return state

    def _rebuild_input(
        self, round_index: int, slot: int, input_id: int
    ) -> TestInput:
        """Regenerate one batch input from its coordinates, against the
        pool exactly as it stood when that round's batch was built: the
        corpus plus every entry promoted in an earlier round — a prefix
        of the pool, since entries are promoted in round order."""
        earlier = bisect_left(
            self.promoted, round_index, key=lambda entry: entry[0]
        )
        return _build_candidate(
            self.config,
            round_index,
            slot,
            input_id,
            self.seed_pool[: self.corpus_len + earlier],
        )

    def result(self) -> FuzzResult:
        """The state's observations as a :class:`FuzzResult`."""
        return FuzzResult(
            config=self.config,
            rounds=self.round_index,
            candidates=self.candidates,
            trials_run=self.trials_run,
            coverage=self.coverage,
            findings=self.findings,
            rediscovered=tuple(sorted(self.rediscovered)),
        )


@dataclass(frozen=True)
class CandidateAnalysis:
    """What one candidate's trials tell its round, computed in the worker
    that ran them."""

    #: ``(key, fingerprint, failure count)`` per distinct fingerprint
    hits: tuple[tuple[str, Fingerprint, int], ...]
    #: catalog numbers the candidate's trials exhibit
    discrepancies: frozenset[int]


def _analyze_candidate(
    label: str,
    trials: list[Trial],
    injections: None,
) -> CandidateAnalysis:
    """Analyze one candidate's trials (every plan × format, in order)
    under the round's fingerprint ``label``. Rounds inject no faults,
    so ``injections`` is always ``None``.

    The executor calls this in the worker (``execute(analyze=)``), so
    it must pickle by reference. It reaches the oracle and fingerprint
    functions through this module's names, so a profiler that rebinds
    them here times the workers' calls too. Every result is a function
    of this one input's trials: WR and EH judge one trial, Diff and the
    fingerprints bucket by input id.
    """
    failures = all_failures(trials)
    hits = run_fingerprints(trials, failures, label)
    return CandidateAnalysis(
        hits=tuple(
            (key, hit.fingerprint, len(hit.failures))
            for key, hit in hits.items()
        ),
        discrepancies=frozenset(found_discrepancies(trials)),
    )


def _execution_conf(conf_overrides: dict[str, object]) -> dict[str, object]:
    """The conf a round's trials run under: its drawn conf, plan cache off.

    Rounds come out identical with the cache on, but every worker then
    keeps the plans of every statement text a campaign draws, and its
    memory grows about twice as fast. With the cache off every
    statement still goes through prepare and execute, the path a cache
    miss takes, so the setting changes only reuse; it is excluded from
    the fingerprint label.
    """
    exec_conf = dict(conf_overrides)
    exec_conf["repro.plan.cache.enabled"] = "false"
    return exec_conf


def run_round(
    state: CampaignState,
    baseline: Baseline,
    *,
    batch_size: int | None = None,
    metrics: CrossTestMetrics | None = None,
    pool_handle: WorkerPoolHandle | None = None,
) -> RoundOutcome:
    """Execute one campaign round and advance ``state`` past it.

    ``batch_size`` defaults to a full ``config.batch`` (the perpetual
    service's unit); :func:`run_fuzz` passes the budget remainder on the
    last round. ``pool_handle`` lets a long-running caller reuse one
    worker pool across rounds instead of paying pool teardown per
    round.

    The batch runs untraced, and the worker that ran a candidate
    analyzes it (:func:`_analyze_candidate`); only outcome columns and
    those results come home. This function then does what depends on
    order: the coverage merge (:func:`trial_features`), promotion and
    finding bookkeeping. Use :func:`trace_witness` to see a finding's
    spans.
    """
    config = state.config
    if batch_size is None:
        batch_size = config.batch
    round_index = state.round_index
    batch = _build_batch(
        config,
        round_index,
        batch_size,
        FUZZ_ID_BASE + state.candidates,
        state.seed_pool,
    )
    conf_overrides = gen_conf(config.seed, round_index)
    analyses: dict[int, CandidateAnalysis] = {}
    trials = execute(
        config.plans,
        config.formats,
        batch,
        _execution_conf(conf_overrides),
        jobs=config.jobs,
        pool=config.pool,
        metrics=metrics,
        pool_handle=pool_handle,
        analyze=partial(_analyze_candidate, conf_label(conf_overrides)),
        analysis_sink=analyses,
    )
    state.trials_run += len(trials)

    # coverage promotion in (byte-identical) trial order: each plan,
    # each format, each slot (index % batch_size). First-seen credit
    # decides promotion, so a candidate-major merge would differ.
    promoted: set[int] = set()
    new_features: set[str] = set()
    for index, trial in enumerate(trials):
        novel = state.coverage.observe(trial_features(trial, conf_overrides))
        if novel:
            promoted.add(index % batch_size)
            new_features.update(novel)
    promoted_count = 0
    for slot in sorted(promoted):
        test_input = batch[slot]
        if test_input.input_id not in state.pool_ids:
            state.seed_pool.append(test_input)
            state.pool_ids.add(test_input.input_id)
            state.promoted.append((round_index, slot, test_input.input_id))
            promoted_count += 1

    # fingerprints + dedup bookkeeping. A key's failures all come from
    # one (plan, fmt) cell or one Diff axis, in input-id (= slot) order,
    # so its witness is the lowest slot that hit it; counts sum.
    witnesses: dict[str, tuple[Fingerprint, int]] = {}
    counts: dict[str, int] = {}
    for slot in range(batch_size):
        for key, fingerprint, count in analyses[slot].hits:
            witnesses.setdefault(key, (fingerprint, slot))
            counts[key] = counts.get(key, 0) + count
    new_keys: list[str] = []
    for key in sorted(witnesses):
        fingerprint, slot = witnesses[key]
        count = counts[key]
        finding = state.findings.get(key)
        if finding is None:
            witness = batch[slot]
            state.findings[key] = FuzzFinding(
                fingerprint=fingerprint,
                witness=witness,
                conf_overrides=dict(conf_overrides),
                round_index=round_index,
                failure_count=count,
                novel=key not in baseline,
            )
            state.witness_provenance[key] = (
                round_index,
                slot,
                witness.input_id,
            )
            new_keys.append(key)
        else:
            finding.failure_count += count

    found = set().union(*(each.discrepancies for each in analyses.values()))
    fresh_numbers = sorted(
        number
        for number in found
        if number and number not in state.rediscovered
    )
    state.rediscovered.update(fresh_numbers)
    state.candidates += batch_size
    state.round_index += 1
    return RoundOutcome(
        round_index=round_index,
        candidates=batch_size,
        trials=len(trials),
        witnessed=tuple(sorted(witnesses)),
        new_keys=tuple(new_keys),
        novel_keys=tuple(
            key for key in new_keys if state.findings[key].novel
        ),
        promoted=promoted_count,
        rediscovered=tuple(fresh_numbers),
        coverage_features=len(state.coverage),
        new_features=tuple(sorted(new_features)),
    )


def trace_witness(config: FuzzConfig, finding: FuzzFinding) -> list[Span]:
    """Re-run a finding's witness traced.

    Rounds run untraced, so a trace export re-runs the (deterministic)
    witness on demand: every plan × format, ``jobs=1``, under the
    finding's conf with the plan cache off. Spans come back in trial
    order (trace ids ``plan/fmt/input_id``), tagged ``source=fuzz`` so
    ``trace summarize`` can split them out of the §8 matrix totals.
    """
    sink: dict[int, tuple[Span, ...]] = {}
    execute(
        config.plans,
        config.formats,
        [finding.witness],
        _execution_conf(finding.conf_overrides),
        jobs=1,
        trace_sink=sink,
    )
    spans = [span for index in sorted(sink) for span in sink[index]]
    for span in spans:
        span.attributes["source"] = "fuzz"
    return spans


def run_fuzz(
    config: FuzzConfig,
    baseline: Baseline,
    *,
    metrics: CrossTestMetrics | None = None,
    progress=None,
) -> FuzzResult:
    """Run one campaign and return its (deterministic) result.

    ``metrics`` defaults to a fresh ``CrossTestMetrics(source="fuzz")``
    so campaign telemetry lands in the ``crosstest.fuzz`` registry and
    never pollutes the §8 matrix counters. ``progress``, if given, is
    called per round as ``progress(round, rounds, trials_so_far)``.

    The result holds no spans: rounds run untraced, so memory does not
    grow with the budget. :func:`trace_witness` re-runs a finding's
    witness when its trace is wanted.
    """
    if metrics is None:
        metrics = CrossTestMetrics(source="fuzz")
    state = CampaignState.fresh(config)
    total_rounds = (config.budget + config.batch - 1) // config.batch
    pool_handle = (
        WorkerPoolHandle(config.jobs, config.pool)
        if resolve_jobs(config.jobs) > 1
        else None
    )
    try:
        while state.candidates < config.budget:
            run_round(
                state,
                baseline,
                batch_size=min(
                    config.batch, config.budget - state.candidates
                ),
                metrics=metrics,
                pool_handle=pool_handle,
            )
            if progress is not None:
                progress(state.round_index, total_rounds, state.trials_run)
    finally:
        if pool_handle is not None:
            pool_handle.close()

    result = state.result()
    if config.shrink:
        for finding in result.novel_findings:
            finding.shrunk = shrink_input(
                finding.witness,
                finding.fingerprint.key,
                config.plans,
                config.formats,
                finding.conf_overrides,
                conf_label(finding.conf_overrides),
            )
    return result
