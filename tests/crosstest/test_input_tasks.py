"""Input tasks: one input under every plan × format, analyzed in its worker."""

import pytest

from repro.crosstest.executor import CrossTestMetrics, execute
from repro.crosstest.oracles import signature
from repro.crosstest.plans import ALL_PLANS, FORMATS
from repro.crosstest.values import generate_inputs
from repro.faults import BUILTIN_PLANS

INPUTS = generate_inputs()[:6] + generate_inputs()[210:214]
PLAIN = {"repro.plan.cache.enabled": "false"}


def _trace_ids(trials, traces):
    """A picklable analysis: each trial's cell and its spans' trace ids."""
    return [
        (trial.plan.name, trial.fmt, sorted({span.trace_id for span in spans}))
        for trial, spans in zip(trials, traces)
    ]


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
    metrics = CrossTestMetrics()
    trials = execute(
        ALL_PLANS, FORMATS, INPUTS, PLAIN, jobs=jobs, pool=pool,
        metrics=metrics, analyze=_trace_ids, analysis_sink=analyses,
    )
    assert _rows(trials) == _rows(expected)
    assert int(metrics.trials_total.value) == len(trials)
    assert sorted(analyses) == list(range(len(INPUTS)))
    for index, test_input in enumerate(INPUTS):
        assert analyses[index] == [
            (plan.name, fmt, [f"{plan.name}/{fmt}/{test_input.input_id}"])
            for plan in ALL_PLANS
            for fmt in FORMATS
        ]


def test_input_tasks_refuse_a_trace_sink_or_faults():
    with pytest.raises(ValueError):
        execute(
            ALL_PLANS, FORMATS, INPUTS, analyze=_trace_ids,
            analysis_sink={}, trace_sink={},
        )
    with pytest.raises(ValueError):
        execute(
            ALL_PLANS, FORMATS, INPUTS, analyze=_trace_ids,
            analysis_sink={}, fault_plan=BUILTIN_PLANS["smoke"],
        )
