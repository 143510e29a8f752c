"""Session-level plan-cache behaviour: DDL invalidation, conf flips,
the disable flag — the guarantees that keep cached analysis from ever
masking a §8 discrepancy."""

import gc

import pytest

from repro.sparklite.session import SparkSession


@pytest.fixture
def spark():
    return SparkSession.local()


class TestDdlInvalidation:
    def test_drop_create_different_schema_recompiles(self, spark):
        spark.sql("CREATE TABLE t (a int) STORED AS orc")
        spark.sql("INSERT INTO t VALUES (1)")
        assert spark.sql("SELECT * FROM t").rows[0][0] == 1
        spark.sql("DROP TABLE t")
        spark.sql("CREATE TABLE t (a string) STORED AS orc")
        spark.sql("INSERT INTO t VALUES ('x')")
        # the SELECT text is identical; a stale plan would decode the
        # old column type
        result = spark.sql("SELECT * FROM t")
        assert result.rows[0][0] == "x"
        assert result.schema.fields[0].data_type.simple_string() == "string"

    def test_identical_drop_create_hits_cache(self, spark):
        spark.sql("CREATE TABLE t (a int) STORED AS orc")
        spark.sql("INSERT INTO t VALUES (1)")
        spark.sql("SELECT * FROM t")
        spark.sql("SELECT * FROM t")
        hits_before = spark.plan_cache.stats.hits
        spark.sql("DROP TABLE t")
        spark.sql("CREATE TABLE t (a int) STORED AS orc")
        spark.sql("INSERT INTO t VALUES (1)")
        spark.sql("SELECT * FROM t")
        # the recreated table is value-identical, so INSERT and SELECT
        # replay their cached plans instead of recompiling
        assert spark.plan_cache.stats.hits > hits_before

    def test_alternating_schemas_both_stay_cached(self, spark):
        def roundtrip(type_text, literal):
            spark.sql(f"CREATE TABLE t (a {type_text}) STORED AS orc")
            spark.sql(f"INSERT INTO t VALUES ({literal})")
            value = spark.sql("SELECT * FROM t").rows[0][0]
            spark.sql("DROP TABLE t")
            return value

        for _ in range(3):
            assert roundtrip("int", "7") == 7
            assert roundtrip("string", "'s'") == "s"
        stats = spark.plan_cache.stats
        # after the first int/string cycle every statement is a variant
        # hit; thrash would show up as one invalidation per cycle
        assert stats.hits > stats.invalidations


class TestConfFlips:
    def test_policy_flip_recompiles_and_flip_back_hits(self, spark):
        from repro.errors import ArithmeticOverflowError

        spark.sql("CREATE TABLE t (a tinyint) STORED AS orc")
        overflow = "INSERT INTO t VALUES (9999)"

        spark.conf.set("spark.sql.storeAssignmentPolicy", "LEGACY")
        spark.sql(overflow)  # legacy wraps the overflowing literal
        assert spark.sql("SELECT * FROM t").rows[0][0] is not None

        spark.conf.set("spark.sql.storeAssignmentPolicy", "ANSI")
        with pytest.raises(ArithmeticOverflowError):
            spark.sql(overflow)

        # flip back: the LEGACY fingerprint's plan is still cached
        spark.conf.set("spark.sql.storeAssignmentPolicy", "LEGACY")
        misses_before = spark.plan_cache.stats.misses
        spark.sql(overflow)
        assert spark.plan_cache.stats.misses == misses_before

        # and the ANSI fingerprint's cached *failure* replays too
        spark.conf.set("spark.sql.storeAssignmentPolicy", "ANSI")
        with pytest.raises(ArithmeticOverflowError):
            spark.sql(overflow)
        assert spark.plan_cache.stats.misses == misses_before

    def test_ansi_cast_flip_changes_select_behaviour(self, spark):
        spark.sql("CREATE TABLE t (a int) STORED AS orc")
        spark.sql("INSERT INTO t VALUES (1)")
        spark.sql("SELECT * FROM t")
        spark.conf.set("spark.sql.ansi.enabled", "true")
        # a new fingerprint: the cached plan for the old conf must not
        # be served
        misses_before = spark.plan_cache.stats.misses
        spark.sql("SELECT * FROM t")
        assert spark.plan_cache.stats.misses == misses_before + 1


class TestDisableFlag:
    def test_flag_bypasses_the_cache(self, spark):
        spark.conf.set("repro.plan.cache.enabled", "false")
        spark.sql("CREATE TABLE t (a int) STORED AS orc")
        spark.sql("INSERT INTO t VALUES (1)")
        spark.sql("SELECT * FROM t")
        spark.sql("SELECT * FROM t")
        assert len(spark.plan_cache) == 0
        assert spark.plan_cache.stats.lookups == 0

    def test_results_identical_with_and_without_cache(self):
        def run(enabled):
            session = SparkSession.local()
            session.conf.set("repro.plan.cache.enabled", enabled)
            session.sql("CREATE TABLE t (a decimal(10,2)) STORED AS orc")
            session.sql("INSERT INTO t VALUES (12.34)")
            out = []
            for _ in range(3):
                result = session.sql("SELECT * FROM t")
                out.append((result.schema.simple_string(), result.rows))
            return out

        assert run("true") == run("false")

    @pytest.mark.parametrize(
        "statement",
        [
            "INSERT INTO t VALUES (9999)",  # ANSI store-assignment overflow
            "INSERT INTO t VALUES (1, 2)",  # arity mismatch
            "SELECT * FROM missing",
        ],
    )
    def test_failures_identical_with_and_without_cache(self, statement):
        def failure(session):
            with pytest.raises(Exception) as info:
                session.sql(statement)
            return type(info.value), str(info.value)

        def session(enabled):
            spark = SparkSession.local()
            spark.conf.set("repro.plan.cache.enabled", enabled)
            spark.sql("CREATE TABLE t (a tinyint) STORED AS orc")
            return spark

        cached = session("true")
        stats = cached.plan_cache.stats
        misses = stats.misses
        miss = failure(cached)
        assert stats.misses == misses + 1
        hits = stats.hits
        replay = failure(cached)
        assert stats.hits == hits + 1
        assert failure(session("false")) == miss == replay

    def test_uncached_failure_leaves_no_cyclic_garbage(self, spark):
        # a failure the cache does not keep must be freed as soon as it
        # is handled, not left for the cycle collector
        spark.conf.set("repro.plan.cache.enabled", "false")
        spark.sql("CREATE TABLE t (a int) STORED AS orc")
        gc.collect()
        gc.disable()
        try:
            for statement in (
                "INSERT INTO t VALUES (1, 2)",
                "SELECT * FROM missing",
            ):
                try:
                    spark.sql(statement)
                except Exception:
                    pass
            assert gc.collect() == 0
        finally:
            gc.enable()
