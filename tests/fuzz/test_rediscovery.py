"""The rediscovery acceptance bar.

From generators alone — curated corpus disabled — a bounded-budget
campaign must behaviourally rediscover at least 8 of the paper's 15
known discrepancies, and the shrinker must reduce rediscovered inputs
to minimal forms that still reproduce their fingerprints.
"""

import pytest

from repro.fuzz import Baseline, FuzzConfig, run_fuzz
from repro.fuzz.shrink import input_size, reproduces


@pytest.fixture(scope="module")
def bounded_campaign():
    # the canonical smoke parameters; use_corpus stays at its default
    # (False), so every executed input came from the generators
    config = FuzzConfig(
        seed=11, budget=96, batch=16, jobs=None, shrink=False
    )
    return run_fuzz(config, Baseline.empty())


def test_generators_alone_rediscover_at_least_8_of_15(bounded_campaign):
    assert not bounded_campaign.config.use_corpus
    assert len(bounded_campaign.rediscovered) >= 8, (
        bounded_campaign.rediscovered
    )


def test_rediscovered_numbers_are_catalog_entries(bounded_campaign):
    assert all(
        1 <= number <= 15 for number in bounded_campaign.rediscovered
    )


def test_shrinker_preserves_fingerprints_of_rediscovered_inputs(
    bounded_campaign,
):
    # shrink one witness per distinct (oracle, type shape) pair — the
    # full 800+ findings would re-execute needlessly many trials
    config = bounded_campaign.config
    by_mechanism = {}
    for finding in bounded_campaign.novel_findings:
        mech = (finding.fingerprint.oracle, finding.fingerprint.type_shape)
        by_mechanism.setdefault(mech, finding)
    sample = list(by_mechanism.values())[:10]
    assert sample
    from repro.fuzz.shrink import shrink_input

    for finding in sample:
        shrunk = shrink_input(
            finding.witness,
            finding.fingerprint.key,
            config.plans,
            config.formats,
            finding.conf_overrides,
        )
        assert input_size(shrunk) <= input_size(finding.witness)
        assert reproduces(
            shrunk,
            finding.fingerprint.key,
            config.plans,
            config.formats,
            finding.conf_overrides,
        )
