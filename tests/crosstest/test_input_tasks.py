"""Per-input analysis: every shard analyzes its inputs in its worker."""

import pytest

from repro.crosstest.executor import CrossTestMetrics, execute
from repro.crosstest.oracles import signature
from repro.crosstest.plans import ALL_PLANS, FORMATS
from repro.crosstest.report import run_crosstest
from repro.crosstest.values import TestInput, generate_inputs
from repro.faults import BUILTIN_PLANS

INPUTS = generate_inputs()[:6] + generate_inputs()[210:214]
PLAIN = {"repro.plan.cache.enabled": "false"}


def _trace_ids(trials, injections):
    """A picklable analysis: each trial's trace id."""
    return [
        f"{trial.plan.name}/{trial.fmt}/{trial.test_input.input_id}"
        for trial in trials
    ]


def _cells(trials, injections):
    """A picklable analysis: the input, its trials' cells, and whether
    injections (one entry per trial) came along."""
    return (
        {trial.test_input.input_id for trial in trials},
        [(trial.plan.name, trial.fmt) for trial in trials],
        injections is not None and len(injections) == len(trials),
    )


def _rows(trials):
    return [
        (trial.plan, trial.fmt, trial.test_input.input_id,
         signature(trial.outcome))
        for trial in trials
    ]


@pytest.mark.parametrize(
    "jobs,pool", [(1, "auto"), (2, "thread"), (2, "process")]
)
def test_input_tasks_keep_the_matrix_order_and_analyze_traced_trials(
    jobs, pool
):
    expected = execute(ALL_PLANS, FORMATS, INPUTS, PLAIN, jobs=1)
    analyses = {}
    sink = {}
    metrics = CrossTestMetrics()
    trials = execute(
        ALL_PLANS, FORMATS, INPUTS, PLAIN, jobs=jobs, pool=pool,
        metrics=metrics, analyze=_trace_ids, analysis_sink=analyses,
        trace_sink=sink,
    )
    assert _rows(trials) == _rows(expected)
    assert int(metrics.trials_total.value) == len(trials)
    assert sorted(analyses) == list(range(len(INPUTS)))
    for index, test_input in enumerate(INPUTS):
        assert analyses[index] == [
            f"{plan.name}/{fmt}/{test_input.input_id}"
            for plan in ALL_PLANS
            for fmt in FORMATS
        ]
    # and each trial's own spans carry its trace id
    assert {
        index: {span.trace_id for span in spans}
        for index, spans in sink.items()
    } == {
        index: {trace_id}
        for index, trace_id in enumerate(_trace_ids(trials, None))
    }


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"batch": False},
        {"trace_sink": {}},
        {"fault_plan": BUILTIN_PLANS["smoke"]},
    ],
    ids=["lanes", "unbatched", "traced", "faulted"],
)
def test_every_pass_analyzes_each_input_once_in_cell_order(options):
    # shared lanes put several inputs in one shard; each still gets
    # one call over its own 24 trials, injections only when faulted
    analyses = {}
    trials = execute(
        ALL_PLANS, FORMATS, INPUTS, jobs=2, pool="thread",
        analyze=_cells, analysis_sink=analyses, **options,
    )
    cells = [(plan.name, fmt) for plan in ALL_PLANS for fmt in FORMATS]
    assert len(trials) == len(cells) * len(INPUTS)
    faulted = "fault_plan" in options
    assert analyses == {
        index: ({test_input.input_id}, cells, faulted)
        for index, test_input in enumerate(INPUTS)
    }
    if "trace_sink" in options:
        assert sorted(options["trace_sink"]) == list(range(len(trials)))


def test_repeated_input_ids_are_refused():
    # Diff and classification bucket by input id: two inputs sharing
    # one would be diffed against each other
    first = TestInput(0, "int", "5", 5, True, "int 5")
    second = TestInput(0, "string", "'x'", "x", True, "string x")
    with pytest.raises(ValueError, match="input id 0 repeats"):
        run_crosstest(inputs=[first, second])
    with pytest.raises(ValueError, match="input id 0 repeats"):
        execute(
            ALL_PLANS, FORMATS, [first, second], analyze=_cells,
            analysis_sink={},
        )
    # without per-input analysis the executor still runs them
    assert len(execute(ALL_PLANS, FORMATS, [first, second])) == 48
    assert run_crosstest(inputs=[first]).failures["difft"] == []
