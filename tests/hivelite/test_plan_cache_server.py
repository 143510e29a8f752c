"""Server-level plan-cache behaviour: the disable flag, and failing
statements that fail alike with the cache off, on a miss and on a
cached replay."""

import gc

import pytest

from repro.hivelite.engine import HiveServer
from repro.hivelite.metastore import HiveMetastore
from repro.storage.filesystem import FileSystem
from repro.storage.namenode import NameNode


def _server(plan_cache_enabled):
    hive = HiveServer(
        HiveMetastore(),
        FileSystem(NameNode()),
        plan_cache_enabled=plan_cache_enabled,
    )
    hive.execute("CREATE TABLE t (a decimal(10,2)) STORED AS orc")
    return hive


class TestDisableFlag:
    def test_flag_bypasses_the_cache(self):
        hive = _server(False)
        hive.execute("INSERT INTO t VALUES (1)")
        hive.execute("SELECT * FROM t")
        hive.execute("SELECT * FROM t")
        assert len(hive.plan_cache) == 0
        assert hive.plan_cache.stats.lookups == 0

    def test_results_identical_with_and_without_cache(self):
        def run(enabled):
            hive = _server(enabled)
            hive.execute("INSERT INTO t VALUES (12.34)")
            out = []
            for _ in range(3):
                result = hive.execute("SELECT * FROM t")
                out.append((result.schema.simple_string(), result.rows))
            return out

        assert run(True) == run(False)

    @pytest.mark.parametrize(
        "statement",
        [
            "INSERT INTO t VALUES (1, 2)",  # arity mismatch
            "SELECT * FROM missing",
            # Avro maps take string keys only
            "CREATE TABLE m (a map<int,string>) STORED AS avro",
        ],
    )
    def test_failures_identical_with_and_without_cache(self, statement):
        def failure(hive):
            with pytest.raises(Exception) as info:
                hive.execute(statement)
            return type(info.value), str(info.value)

        cached = _server(True)
        stats = cached.plan_cache.stats
        misses = stats.misses
        miss = failure(cached)
        assert stats.misses == misses + 1
        hits = stats.hits
        replay = failure(cached)
        assert stats.hits == hits + 1
        assert failure(_server(False)) == miss == replay

    def test_uncached_failure_leaves_no_cyclic_garbage(self):
        # a failure the cache does not keep must be freed as soon as it
        # is handled, not left for the cycle collector
        hive = _server(False)
        gc.collect()
        gc.disable()
        try:
            for statement in (
                "INSERT INTO t VALUES (1, 2)",
                "SELECT * FROM missing",
            ):
                try:
                    hive.execute(statement)
                except Exception:
                    pass
            assert gc.collect() == 0
        finally:
            gc.enable()
