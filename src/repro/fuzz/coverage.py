"""Coverage feedback for the fuzzer, scraped from boundary traces.

AFL keys its feedback map on branch edges; here the observable units
are the repo's *cross-system interaction sites*: boundary spans and the
structured events the seams emit (cast-policy decisions, serde quirks,
schema replays). A generated input that lights up a ``(site, decision)``
pair no earlier input reached is promoted into the scheduler's seed
pool and mutated further.

Extraction runs in the worker that ran the candidate, on its raw
spans (:func:`repro.fuzz.scheduler._analyze_candidate`): only the
feature sets travel to the parent, which merges them into the
:class:`CoverageMap` in trial order. A feature reads only strings and
bools off a span, so it is the same whether the span was shipped and
decoded or not.

Feature extraction is deliberately narrower than the trace vocabulary:

* span durations never feed a feature (wall-clock is noise);
* plan-cache and prepare-memo traffic is excluded — cache warmth
  depends on worker count and shard order, and a feature that differs
  between ``--jobs 2`` and ``--jobs 4`` would break the campaign's
  byte-identical replay guarantee;
* event attributes pass through a per-event allowlist, so only
  attributes that are pure functions of ``(input, conf)`` count.
"""

from __future__ import annotations

from repro.crosstest.fingerprint import outcome_shape, type_shape
from repro.crosstest.harness import Trial
from repro.tracing.core import Span

__all__ = ["EVENT_ATTRS", "CoverageMap", "trial_features"]

#: structured events that may contribute features, with the attribute
#: subset that is deterministic for a fixed ``(input, conf)``. Anything
#: not listed here — ``plan_cache.*``, ``spark.create.memo_*``,
#: ``create.replayed``, ``fault.*`` — is invisible to coverage: those
#: events describe cache/replay state, which depends on what a worker
#: process executed before, not on the input under test. (The scheduler
#: additionally pins the analysis path itself by running every fuzz
#: batch with ``repro.plan.cache.enabled=false``, so analysis-time
#: spans and events fire on every trial instead of only on cache
#: misses.)
EVENT_ATTRS: dict[str, tuple[str, ...]] = {
    "cast.store_assignment": ("policy", "ansi"),
    "orc.positional_rename": ("prefix",),
}


def _span_features(spans: tuple[Span, ...]) -> set[str]:
    features: set[str] = set()
    for span in spans:
        if span.boundary:
            features.add(
                f"span:{span.boundary}:{span.operation}:{span.status}"
            )
        for event in span.events:
            allowed = EVENT_ATTRS.get(event.name)
            if allowed is None:
                continue
            detail = ",".join(
                f"{key}={event.attributes.get(key)}"
                for key in allowed
                if key in event.attributes
            )
            features.add(f"event:{event.name}:{detail}")
    return features


def trial_features(trial: Trial, spans: tuple[Span, ...] = ()) -> set[str]:
    """The coverage features one executed trial contributes."""
    test_input = trial.test_input
    features = _span_features(spans)
    features.add(f"type:{type_shape(test_input.type_text)}")
    features.add(
        "verdict:"
        f"{trial.plan.group}:{trial.fmt}:"
        f"{outcome_shape(trial.outcome, test_input)}"
    )
    return features


class CoverageMap:
    """The campaign-wide set of observed features.

    ``observe`` returns the features an input saw for the first time;
    the scheduler promotes inputs with a non-empty return. Processing
    trials in their (byte-identical) executor order keeps "first" — and
    therefore the seed pool — independent of worker count.
    """

    def __init__(self) -> None:
        self.seen: set[str] = set()

    def observe(self, features: set[str]) -> set[str]:
        novel = features - self.seen
        if novel:
            self.seen.update(novel)
        return novel

    def __len__(self) -> int:
        return len(self.seen)
