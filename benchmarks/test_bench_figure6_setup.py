"""Figure 6 / §8.1: the cross-testing setup itself.

Paper: three interfaces, eight write-read plans in three groups, three
backend formats, 422 generated inputs (210 valid + 212 invalid).
"""

from itertools import product

from repro.crosstest.executor import DEFAULT_SHARD_INPUTS, build_shards
from repro.crosstest.plans import (
    ALL_PLANS,
    FORMATS,
    HIVE_TO_SPARK,
    SPARK_E2E,
    SPARK_TO_HIVE,
)
from repro.crosstest.values import generate_inputs


def test_bench_figure6_input_generation(benchmark):
    inputs = benchmark(generate_inputs)
    valid = sum(1 for i in inputs if i.valid)
    invalid = len(inputs) - valid
    types = {i.column_type.name for i in inputs}

    print("\nFigure 6 setup (paper -> measured)")
    print(f"  inputs:       422 -> {len(inputs)}")
    print(f"  valid:        210 -> {valid}")
    print(f"  invalid:      212 -> {invalid}")
    print(f"  type families covered: {len(types)}")

    assert len(inputs) == 422
    assert valid == 210
    assert invalid == 212
    assert len(types) >= 15


def test_bench_figure6_plan_matrix(benchmark):
    def shape():
        return {
            "plans": len(ALL_PLANS),
            "spark_to_spark": len(SPARK_E2E),
            "spark_to_hive": len(SPARK_TO_HIVE),
            "hive_to_spark": len(HIVE_TO_SPARK),
            "formats": len(FORMATS),
        }

    measured = benchmark(shape)
    print("\nplan matrix (paper -> measured)")
    print(f"  spark-to-spark plans: 4 -> {measured['spark_to_spark']}")
    print(f"  spark-to-hive plans:  2 -> {measured['spark_to_hive']}")
    print(f"  hive-to-spark plans:  2 -> {measured['hive_to_spark']}")
    print(f"  backend formats:      3 -> {measured['formats']}")
    assert measured == {
        "plans": 8,
        "spark_to_spark": 4,
        "spark_to_hive": 2,
        "hive_to_spark": 2,
        "formats": 3,
    }


def test_bench_figure6_shard_plan(benchmark):
    """The executor's shard layout covers the matrix exactly once: put
    back at their run indices, the shards' trials make the same
    plan -> format -> input order the sequential loop uses."""
    inputs = generate_inputs()
    shards = benchmark(build_shards, ALL_PLANS, FORMATS, inputs)

    cells = {cell for s in shards for cell in s.cells}
    print("\nshard layout for the full matrix")
    print(f"  shards:        {len(shards)}")
    print(f"  (plan, fmt) cells per shard: {len(cells)}")
    print(f"  largest shard: {max(len(s.inputs) for s in shards)} inputs")

    assert len(cells) == 8 * 3
    assert all(len(s.cells) == 8 * 3 for s in shards)
    assert [s.index for s in shards] == list(range(len(shards)))
    # a shard is one lane group: inputs of one column type
    assert all(len({i.type_text for i in s.inputs}) == 1 for s in shards)
    assert max(len(s.inputs) for s in shards) <= DEFAULT_SHARD_INPUTS
    slots = {}
    for s in shards:
        keys = [
            (plan.name, fmt, i.input_id)
            for (plan, fmt), i in product(s.cells, s.inputs)
        ]
        for index, key in zip(s.trial_indices(len(inputs)), keys):
            assert index not in slots, "a trial landed twice"
            slots[index] = key
    expected = [
        (plan.name, fmt, i.input_id)
        for plan in ALL_PLANS
        for fmt in FORMATS
        for i in inputs
    ]
    assert [slots[index] for index in range(len(expected))] == expected
