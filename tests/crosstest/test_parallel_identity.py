"""Report byte-identity across jobs x pool x tracing x faults.

The acceptance bar for the batched result shipping: the rendered
report — and, for traced runs, every span payload — is identical at
jobs 1/2/4 on thread and process pools, with tracing and fault
injection both on and off. Runs on the distilled smoke corpus so the
full grid stays cheap.
"""

import pytest

from repro.crosstest.report import run_crosstest
from repro.crosstest.smoke import smoke_inputs
from repro.faults import BUILTIN_PLANS

SETTINGS = [
    (2, "thread"),
    (4, "thread"),
    (2, "process"),
    (4, "process"),
]


def _span_payloads(report):
    """Traces as comparable JSON payloads, keyed by global trial index.

    Only wall-clock fields (``start_s``, ``duration_s``, event offsets)
    are stripped: they legitimately differ between *runs*. Everything
    else — ids, structure, boundaries, statuses, errors, attributes,
    events — must be identical at every jobs/pool setting, whatever
    the worker that ran a trial ran before it.
    """

    def strip(payload):
        payload = {
            key: value
            for key, value in payload.items()
            if key not in ("start_s", "duration_s")
        }
        payload["events"] = [
            {k: v for k, v in event.items() if k != "offset_s"}
            for event in payload.get("events", [])
        ]
        return payload

    return {
        index: [strip(span.to_json()) for span in spans]
        for index, spans in report.traces.items()
    }


@pytest.fixture(scope="module")
def smoke():
    return smoke_inputs()


@pytest.fixture(scope="module")
def plain_sequential(smoke):
    return run_crosstest(inputs=smoke, jobs=1).to_json()


#: with the plan cache on, span *content* depends on plan-cache warmth
#: (``plan_cache.*`` events; a cached Hive create is replayed), and
#: warmth depends on worker history — so span-level identity is
#: asserted the way fuzz campaigns run: with the plan cache pinned off.
#: A fault plan never reuses a plan either. Outcome-neutral per the
#: cache-on/off byte-identity guarantee.
NO_CACHE = {"repro.plan.cache.enabled": "false"}

#: the traced settings add a second jobs=1 run, in this process, on the
#: deployments the reference run already warmed
TRACED_SETTINGS = SETTINGS + [(1, "thread")]

FAULTED_TRACED = dict(fault_plan=BUILTIN_PLANS["smoke"], fault_seed=1337)


@pytest.fixture(scope="module")
def traced_sequential(smoke):
    return run_crosstest(
        inputs=smoke, conf_overrides=NO_CACHE, jobs=1, tracing=True
    )


@pytest.fixture(scope="module")
def faulted_traced_sequential(smoke):
    return run_crosstest(inputs=smoke, jobs=1, tracing=True, **FAULTED_TRACED)


@pytest.fixture(scope="module")
def faulted_sequential(smoke):
    return run_crosstest(
        inputs=smoke,
        jobs=1,
        fault_plan=BUILTIN_PLANS["smoke"],
        fault_seed=7,
    ).to_json()


class TestIdentity:
    @pytest.mark.parametrize("jobs,pool", SETTINGS)
    def test_plain_report_identical(self, smoke, plain_sequential, jobs, pool):
        report = run_crosstest(inputs=smoke, jobs=jobs, pool=pool)
        assert report.to_json() == plain_sequential

    @pytest.mark.parametrize("jobs,pool", TRACED_SETTINGS)
    def test_traced_report_and_spans_identical(
        self, smoke, traced_sequential, jobs, pool
    ):
        report = run_crosstest(
            inputs=smoke,
            conf_overrides=NO_CACHE,
            jobs=jobs,
            pool=pool,
            tracing=True,
        )
        assert report.to_json() == traced_sequential.to_json()
        assert _span_payloads(report) == _span_payloads(traced_sequential)

    @pytest.mark.parametrize("jobs,pool", SETTINGS)
    def test_faulted_report_identical(
        self, smoke, faulted_sequential, jobs, pool
    ):
        report = run_crosstest(
            inputs=smoke,
            jobs=jobs,
            pool=pool,
            fault_plan=BUILTIN_PLANS["smoke"],
            fault_seed=7,
        )
        assert report.to_json() == faulted_sequential

    @pytest.mark.parametrize("jobs,pool", TRACED_SETTINGS)
    def test_faulted_traced_report_and_spans_identical(
        self, smoke, faulted_traced_sequential, jobs, pool
    ):
        report = run_crosstest(
            inputs=smoke, jobs=jobs, pool=pool, tracing=True, **FAULTED_TRACED
        )
        assert report.to_json() == faulted_traced_sequential.to_json()
        assert _span_payloads(report) == _span_payloads(
            faulted_traced_sequential
        )

    def test_tracing_does_not_change_the_rendered_report(
        self, plain_sequential, traced_sequential
    ):
        assert traced_sequential.to_json() == plain_sequential
