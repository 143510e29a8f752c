"""Unit tests of the conf- and catalog-aware plan cache."""

import pytest

from repro.sql.plancache import (
    DEFAULT_MAX_ENTRIES,
    CacheStats,
    PlanCache,
    PreparedFailure,
)


def _resolver(catalog):
    """A resolve callable over a dict catalog, counting its calls."""
    calls = []

    def resolve(dep_key):
        calls.append(dep_key)
        return catalog.get(dep_key)

    resolve.calls = calls
    return resolve


class TestLookupStore:
    def test_cold_lookup_misses(self):
        cache = PlanCache()
        assert cache.lookup("SELECT 1", (), 0, _resolver({})) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_store_then_hit(self):
        cache = PlanCache()
        catalog = {("default", "t"): 7}
        cache.store("Q", (), 0, ((("default", "t"), 7),), "plan")
        resolve = _resolver(catalog)
        assert cache.lookup("Q", (), 0, resolve) == "plan"
        assert cache.stats.hits == 1
        assert len(cache) == 1

    def test_conf_fingerprint_separates_entries(self):
        cache = PlanCache()
        cache.store("Q", ("ansi=true",), 0, (), "ansi-plan")
        cache.store("Q", ("ansi=false",), 0, (), "legacy-plan")
        assert cache.lookup("Q", ("ansi=true",), 0, _resolver({})) == "ansi-plan"
        assert (
            cache.lookup("Q", ("ansi=false",), 0, _resolver({})) == "legacy-plan"
        )
        assert len(cache) == 2

    def test_dependency_change_is_invalidation_not_stale_serve(self):
        cache = PlanCache()
        dep = ("default", "t")
        cache.store("Q", (), 0, ((dep, 7),), "old-plan")
        # the catalog moved: the table now has state 8
        assert cache.lookup("Q", (), 1, _resolver({dep: 8})) is None
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 1

    def test_identical_recreate_revalidates(self):
        """DROP + CREATE of an identical table serves the cached plan."""
        cache = PlanCache()
        dep = ("default", "t")
        cache.store("Q", (), 0, ((dep, 7),), "plan")
        # two version bumps later the table resolves to the same state
        assert cache.lookup("Q", (), 2, _resolver({dep: 7})) == "plan"
        assert cache.stats.hits == 1
        assert cache.stats.invalidations == 0


class TestStateVariants:
    def test_each_seen_state_keeps_its_own_plan(self):
        cache = PlanCache()
        dep = ("default", "ct")
        cache.store("SELECT * FROM ct", (), 0, ((dep, 1),), "int-plan")
        cache.store("SELECT * FROM ct", (), 1, ((dep, 2),), "str-plan")
        assert (
            cache.lookup("SELECT * FROM ct", (), 2, _resolver({dep: 1}))
            == "int-plan"
        )
        assert (
            cache.lookup("SELECT * FROM ct", (), 3, _resolver({dep: 2}))
            == "str-plan"
        )
        assert cache.stats.hits == 2
        assert len(cache) == 2

    def test_unchanged_version_skips_resolution(self):
        cache = PlanCache()
        dep = ("default", "t")
        cache.store("Q", (), 5, ((dep, 7),), "plan")
        resolve = _resolver({dep: 7})
        assert cache.lookup("Q", (), 5, resolve) == "plan"
        # version matched the validated one: no dependency resolution
        assert resolve.calls == []

    def test_moved_version_resolves_again(self):
        cache = PlanCache()
        dep = ("default", "t")
        cache.store("Q", (), 5, ((dep, 7),), "plan")
        resolve = _resolver({dep: 7})
        assert cache.lookup("Q", (), 6, resolve) == "plan"
        assert resolve.calls == [dep]


class TestEviction:
    def test_bounded_lru_evicts_oldest_statement(self):
        cache = PlanCache(max_entries=2)
        cache.store("A", (), 0, (), "a")
        cache.store("B", (), 0, (), "b")
        cache.store("C", (), 0, (), "c")
        assert cache.lookup("A", (), 0, _resolver({})) is None
        assert cache.lookup("C", (), 0, _resolver({})) == "c"
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_default_bound(self):
        assert PlanCache().max_entries == DEFAULT_MAX_ENTRIES

    def test_clear_resets_size(self):
        cache = PlanCache()
        cache.store("A", (), 0, (), "a")
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup("A", (), 0, _resolver({})) is None


class TestStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert stats.as_dict()["hit_rate"] == 0.75

    def test_empty_hit_rate_is_zero(self):
        assert CacheStats().hit_rate == 0.0


class TestPreparedFailure:
    def test_execute_reraises_the_original_exception(self):
        error = ValueError("arity mismatch")
        plan = PreparedFailure(error)
        with pytest.raises(ValueError) as excinfo:
            plan.execute(object())
        assert excinfo.value is error

    def test_replays_do_not_grow_the_traceback(self):
        # each replay must start from a cleared traceback: a growing
        # chain keeps every earlier replay's frames (and their locals)
        # alive for as long as the cache entry lives
        def chain_length(error):
            length, tb = 0, error.__traceback__
            while tb is not None:
                length, tb = length + 1, tb.tb_next
            return length

        plan = PreparedFailure(ValueError("arity mismatch"))
        with pytest.raises(ValueError):
            plan.execute(object())
        once = chain_length(plan.error)
        for _ in range(100):
            with pytest.raises(ValueError):
                plan.execute(object())
        assert 0 < chain_length(plan.error) <= once
