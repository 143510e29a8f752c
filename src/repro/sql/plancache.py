"""A conf- and catalog-aware plan cache shared by both engines.

The §8 harness replays a few hundred distinct statement texts hundreds
of thousands of times; parsing was memoized in an earlier pass, but
analysis (catalog resolution, literal evaluation, cast dispatch,
serialization) still ran per call. This cache closes that gap — and
because the *analysis layer is exactly the paper's discrepancy surface*,
it is deliberately paranoid about the two ways a cached plan could go
stale:

* **Configuration.** Discrepancies #5/#8–#13 exist only under specific
  session configuration; a cache that ignored conf would erase them.
  Every entry is keyed on a caller-supplied *conf fingerprint* (the
  settings the engine's analysis actually reads).
* **Catalog state.** The metastore is shared mutable state between two
  independent engines — precisely the cross-system shape the paper
  studies, and the OpenStack failure studies in PAPERS.md show stale
  shared state dominating that bug class. Every entry is keyed on a
  *dependency fingerprint*: the frozen catalog entries (``Table``
  dataclasses, or ``None`` for absent tables) the plan resolved against.
  The metastore's monotonically increasing ``catalog_version`` makes the
  common case cheap — while the version is unchanged since the entry was
  stored or last validated, the dependencies provably cannot have moved
  and the fingerprint check is skipped.

A DROP + CREATE that rebuilds an *identical* table re-validates instead
of recompiling (the fingerprint still matches), and entries are
*state-variant aware*: one statement text holds a plan per distinct
dependency state it was compiled under, so the cross-test pattern —
``SELECT * FROM ct`` replayed while ``ct`` cycles through dozens of
column types — hits on every state it has seen before instead of
thrashing a single slot. Serving a stale plan is structurally
impossible: a plan is only ever served for the exact catalog state it
was compiled against.

The cache decides reuse and nothing else: the engines prepare every
statement but DROP into a plan and execute it, on one path per
statement kind. With the cache off (``repro.plan.cache.enabled=false``)
or a fault plan active they skip only the lookup and the store, so
"cache off" differs from the default only in reuse.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field

__all__ = ["PlanCache", "CacheStats", "PreparedFailure"]

#: Default per-session bound on cached *plans* (state variants, summed
#: over all statement texts). The cross-test corpus compiles a couple of
#: thousand distinct (text, conf, deps) shapes; adversarial corpora with
#: unbounded distinct statements evict oldest-first instead of growing.
DEFAULT_MAX_ENTRIES = 4096


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters for one cache."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass(frozen=True)
class PreparedFailure:
    """A statement whose *analysis* failed.

    Analysis errors (arity mismatch, ANSI cast overflow, strict literal
    parse failure, unresolvable table) are a function of the statement
    text, the configuration and the dependency fingerprint — exactly the
    cache key — so the failure itself is cacheable. When nothing is
    cached (cache off, or a fault plan active) the plan only carries the
    error from prepare to execute; under injection that error may itself
    be injected. ``execute`` re-raises the original exception object:
    type and message, which is all the harness observes, replay
    identically. Each replay starts from a cleared traceback; otherwise
    every replay would extend the cached object's traceback and keep all
    earlier replays' frames alive.
    """

    error: Exception

    def execute(self, engine: object) -> object:
        del engine
        try:
            raise self.error.with_traceback(None)
        finally:
            # the traceback keeps this frame; without ``self`` in it an
            # uncached failure is freed by reference counting instead
            # of lingering as cyclic garbage until the next collection
            del self


@dataclass
class _Entry:
    """All cached plans for one (text, conf fp) pair.

    ``dep_keys`` are the dependency keys the statement resolves against —
    a function of the statement text, discovered at first compile.
    ``variants`` maps each *resolved dependency state* (the tuple of
    frozen catalog entries) to the plan compiled under that state.
    ``validated_version``/``last_state`` make the common case cheap: while
    the catalog version has not moved since the last lookup, the
    dependencies provably cannot have changed and resolution is skipped.
    """

    dep_keys: tuple[Hashable, ...]
    variants: OrderedDict
    validated_version: int = -1
    last_state: tuple | None = None


@dataclass
class PlanCache:
    """Bounded LRU of compiled plans keyed (text, conf fp, dep state).

    ``lookup``/``store`` take the statement text, the conf fingerprint,
    the current catalog version, and a ``resolve`` callable mapping a
    dependency key (e.g. ``("default", "ct")``) to its current catalog
    state. Dependency keys are *discovered at compile time* and recorded
    on the entry; lookups re-resolve them only when the catalog version
    has moved, then select the plan variant matching the current state.
    ``max_entries`` bounds the total number of cached plans (variants),
    evicting whole least-recently-used statements.
    """

    max_entries: int = DEFAULT_MAX_ENTRIES
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: OrderedDict = field(default_factory=OrderedDict)
    _size: int = 0

    def __len__(self) -> int:
        return self._size

    def lookup(
        self,
        text: str,
        conf_fp: Hashable,
        catalog_version: int,
        resolve: Callable[[Hashable], object],
    ) -> object | None:
        """Return the cached plan for the *current* catalog state.

        ``None`` means miss: either the statement was never compiled
        under this conf, or never against the catalog state it resolves
        to right now (counted as an invalidation — the state moved away
        from every cached variant).
        """
        key = (text, conf_fp)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if (
            entry.validated_version == catalog_version
            and entry.last_state is not None
        ):
            state = entry.last_state
        else:
            state = tuple(resolve(dep_key) for dep_key in entry.dep_keys)
        plan = entry.variants.get(state)
        if plan is None:
            # the catalog moved to a state this text was never compiled
            # under: never serve a stale variant
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        entry.validated_version = catalog_version
        entry.last_state = state
        entry.variants.move_to_end(state)
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return plan

    def store(
        self,
        text: str,
        conf_fp: Hashable,
        catalog_version: int,
        deps: tuple[tuple[Hashable, object], ...],
        plan: object,
    ) -> object:
        """Insert a freshly compiled plan; returns the plan unchanged."""
        key = (text, conf_fp)
        dep_keys = tuple(dep_key for dep_key, _ in deps)
        state = tuple(fingerprint for _, fingerprint in deps)
        entry = self._entries.get(key)
        if entry is None or entry.dep_keys != dep_keys:
            if entry is not None:
                self._size -= len(entry.variants)
            entry = _Entry(dep_keys=dep_keys, variants=OrderedDict())
            self._entries[key] = entry
        if state not in entry.variants:
            self._size += 1
        entry.variants[state] = plan
        entry.variants.move_to_end(state)
        entry.validated_version = catalog_version
        entry.last_state = state
        self._entries.move_to_end(key)
        while self._size > self.max_entries and len(self._entries) > 1:
            _, oldest = self._entries.popitem(last=False)
            self._size -= len(oldest.variants)
            self.stats.evictions += len(oldest.variants)
        return plan

    def clear(self) -> None:
        self._entries.clear()
        self._size = 0
