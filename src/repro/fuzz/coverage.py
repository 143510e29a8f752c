"""Coverage feedback for the fuzzer: the sites each trial reached.

AFL keys its feedback map on branch edges; here the observable units
are the repo's *cross-system interaction sites*: the boundaries a trial
crossed and the decisions its seams made (the store-assignment cast
policy, Hive's positional ORC rename). A generated input that lights
up a ``(site, decision)`` pair no earlier input reached is promoted
into the scheduler's seed pool and mutated further.

Like the §8 oracles, coverage judges a trial by its outcome: what it
crossed follows from its plan, format and conf and the stage its
outcome reached (the tables below; every crossing completed, as a
stage fails between boundary calls). So rounds run untraced, and no
feature depends on ``--jobs`` or on what a worker ran before.
``tests/fuzz/test_coverage.py`` pins this against traced trials' spans.
"""

from __future__ import annotations

from functools import cache, lru_cache

from repro.crosstest.fingerprint import outcome_shape, type_shape
from repro.crosstest.harness import Trial
from repro.crosstest.plans import Interface, Plan
from repro.sparklite.conf import SparkConf

__all__ = ["CoverageMap", "trial_features"]

_SQL_WRITE = (
    ("spark->metastore:create_table",),
    ("spark->metastore:resolve",),
    ("spark->serde:encode", "spark->hdfs:write_segment"),
)
_SPARK_READ = (
    "spark->metastore:resolve",
    "spark->hdfs:read_segments",
    "spark->serde:decode",
)

#: writer -> what it crosses in CREATE, in analyzing its write and in
#: completing it; the DataFrame writer does all three while it saves
_WRITES = {
    Interface.SPARKSQL: _SQL_WRITE,
    Interface.DATAFRAME: ((), (), sum(_SQL_WRITE, ())),
    Interface.HIVEQL: (
        ("hive->metastore:create_table",),
        ("hive->metastore:get_table",),
        ("hive->serde:encode", "hive->hdfs:write_segment"),
    ),
}

#: reader -> what its read crosses; a read that failed had decoded
_READS = {
    Interface.SPARKSQL: _SPARK_READ,
    Interface.DATAFRAME: _SPARK_READ,
    Interface.HIVEQL: (
        "hive->metastore:get_table",
        "hive->hdfs:read_segments",
        "hive->serde:decode",
    ),
}


@lru_cache(maxsize=32)
def _store_assignment(conf: tuple[tuple[str, object], ...]) -> str:
    """The cast-policy event of a Spark SQL write's analysis under
    ``conf``, read through :class:`SparkConf` as a deployment reads it."""
    spark = SparkConf()
    for key, value in conf:
        spark.set(key, value, source="deployment")
    policy = str(spark.store_assignment_policy)
    ansi = bool(spark.get("spark.sql.ansi.enabled"))
    return f"event:cast.store_assignment:policy={policy},ansi={ansi}"


@cache
def _crossed(plan: Plan, fmt: str, stage: str, cast: str) -> frozenset[str]:
    """A trial's boundary and seam-event features, by the stage its
    outcome failed at (empty if it did not fail)."""
    steps = {"create": 0, "write": 2}.get(stage, 3)
    crossed = [each for step in _WRITES[plan.writer][:steps] for each in step]
    if steps == 3:
        crossed.extend(_READS[plan.reader])
    features = {f"span:{crossing}:ok" for crossing in crossed}
    if plan.writer == Interface.SPARKSQL and steps >= 2:
        features.add(cast)
    if plan.writer == Interface.HIVEQL and fmt == "orc" and steps == 3:
        features.add("event:orc.positional_rename:prefix=_col")
    return frozenset(features)


def trial_features(
    trial: Trial, conf_overrides: dict[str, object]
) -> set[str]:
    """The coverage features one executed trial contributes, under the
    deployment conf its round drew."""
    test_input = trial.test_input
    cast = _store_assignment(tuple(sorted(conf_overrides.items())))
    features = set(_crossed(trial.plan, trial.fmt, trial.outcome.stage, cast))
    shape = outcome_shape(trial.outcome, test_input)
    features.add(f"type:{type_shape(test_input.type_text)}")
    features.add(f"verdict:{trial.plan.group}:{trial.fmt}:{shape}")
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
