"""Delta-debugging shrinker: smaller inputs, same fingerprint."""

import pytest

from repro.fuzz import Baseline, FuzzConfig, run_fuzz
from repro.fuzz.shrink import input_size, reproduces, shrink_input


@pytest.fixture(scope="module")
def campaign():
    config = FuzzConfig(seed=11, budget=18, batch=18, jobs=1, shrink=True)
    return run_fuzz(config, Baseline.empty())


def test_every_novel_finding_gets_a_shrunk_repro(campaign):
    assert campaign.novel_findings
    for finding in campaign.novel_findings:
        assert finding.shrunk is not None
        assert input_size(finding.shrunk) <= input_size(finding.witness)


def test_shrunk_inputs_still_reproduce_their_fingerprint(campaign):
    config = campaign.config
    for finding in campaign.novel_findings[:12]:
        assert reproduces(
            finding.shrunk,
            finding.fingerprint.key,
            config.plans,
            config.formats,
            finding.conf_overrides,
        ), finding.fingerprint.key


def test_shrinker_actually_reduces_some_inputs(campaign):
    reduced = sum(
        1
        for finding in campaign.novel_findings
        if input_size(finding.shrunk) < input_size(finding.witness)
    )
    assert reduced > 0


def test_shrink_is_deterministic(campaign):
    finding = campaign.novel_findings[0]
    config = campaign.config
    again = shrink_input(
        finding.witness,
        finding.fingerprint.key,
        config.plans,
        config.formats,
        finding.conf_overrides,
    )
    assert again.sql_literal == finding.shrunk.sql_literal
    assert again.type_text == finding.shrunk.type_text


def test_input_size_counts_type_and_literal_text():
    from repro.fuzz.generators import FUZZ_ID_BASE, gen_candidate

    witness = gen_candidate(0, 0, 0, FUZZ_ID_BASE)
    assert input_size(witness) == len(witness.type_text) + len(
        witness.sql_literal
    )
