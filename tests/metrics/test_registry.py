"""Tests for the monitoring substrate."""

import pytest

from repro.metrics import (
    AbsentPolicy,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)


@pytest.fixture
def registry():
    return MetricsRegistry(system="monitoring")


class TestMetrics:
    def test_gauge_set(self, registry):
        gauge = registry.gauge("g")
        gauge.set(5)
        assert registry.read("g") == 5.0

    def test_counter_increments(self, registry):
        counter = registry.counter("c")
        counter.increment()
        counter.increment(2.5)
        assert registry.read("c") == 3.5

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(MetricError):
            registry.counter("c").increment(-1)

    def test_registration_idempotent(self, registry):
        first = registry.gauge("g")
        first.set(7)
        second = registry.gauge("g")
        assert second is first
        assert registry.read("g") == 7

    def test_names_sorted(self, registry):
        registry.gauge("b")
        registry.counter("a")
        assert registry.names() == ["a", "b"]

    def test_get_returns_metric_object_or_none(self, registry):
        gauge = registry.gauge("g")
        assert registry.get("g") is gauge
        assert registry.get("nope") is None
        registry.deregister("g")
        assert registry.get("g") is None

    def test_items_pairs_in_name_order(self, registry):
        gauge = registry.gauge("b")
        counter = registry.counter("a")
        assert registry.items() == [("a", counter), ("b", gauge)]


class TestAbsentPolicies:
    def test_deregistered_reads_zero_by_default(self, registry):
        registry.gauge("usage").set(1000)
        registry.deregister("usage")
        # the GCP-outage behaviour
        assert registry.read("usage") == 0.0
        assert not registry.is_registered("usage")

    def test_absent_policy_returns_none(self, registry):
        registry.gauge("usage").set(1000)
        registry.deregister("usage")
        assert registry.read("usage", AbsentPolicy.ABSENT) is None

    def test_error_policy_raises_with_history(self, registry):
        registry.gauge("usage")
        registry.deregister("usage")
        with pytest.raises(MetricError, match="deregistered"):
            registry.read("usage", AbsentPolicy.ERROR)

    def test_never_registered_error_message(self, registry):
        with pytest.raises(MetricError) as excinfo:
            registry.read("ghost", AbsentPolicy.ERROR)
        assert "deregistered" not in str(excinfo.value)

    def test_reregistration_clears_history(self, registry):
        registry.gauge("g")
        registry.deregister("g")
        registry.gauge("g").set(3)
        assert registry.read("g", AbsentPolicy.ERROR) == 3

    def test_scrape_only_registered(self, registry):
        registry.gauge("keep").set(1)
        registry.gauge("drop").set(2)
        registry.deregister("drop")
        assert registry.scrape() == {"keep": 1.0}


class TestHistogram:
    def test_observe_and_count(self):
        hist = Histogram("latency", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.002, 0.05, 5.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.value == 4.0
        assert hist.sum == pytest.approx(5.0525)
        assert hist.snapshot()["overflow"] == 1

    def test_quantiles_use_bucket_bounds(self):
        hist = Histogram("latency", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(1.0) == 4.0
        assert hist.quantile(0.0) == 1.0

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram("h").quantile(0.99) == 0.0
        assert Histogram("h").mean == 0.0

    def test_quantile_range_checked(self):
        with pytest.raises(MetricError):
            Histogram("h").quantile(1.5)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(MetricError):
            Histogram("h", buckets=(0.1, 0.01))

    def test_merge_folds_counts(self):
        left = Histogram("h", buckets=(1.0, 2.0))
        right = Histogram("h", buckets=(1.0, 2.0))
        left.observe(0.5)
        right.observe(1.5)
        right.observe(9.0)
        left.merge(right)
        assert left.count == 3
        assert left.sum == pytest.approx(11.0)
        assert left.snapshot()["overflow"] == 1

    def test_merge_requires_same_buckets(self):
        with pytest.raises(MetricError):
            Histogram("h", buckets=(1.0,)).merge(Histogram("h", buckets=(2.0,)))

    def test_registered_name_constructs_nothing(self, monkeypatch):
        # a lookup of a registered name returns it without building and
        # validating a throwaway metric first
        built = []
        post_init = Histogram.__post_init__

        def counted(self):
            built.append(self.name)
            post_init(self)

        monkeypatch.setattr(Histogram, "__post_init__", counted)
        registry = MetricsRegistry(system="crosstest")
        hist = registry.histogram("latency")
        assert built == ["latency"]
        assert registry.histogram("latency") is hist
        assert registry.histogram("latency", description="again") is hist
        assert built == ["latency"]

    def test_registry_registration_and_scrape(self):
        registry = MetricsRegistry(system="crosstest")
        hist = registry.histogram("latency")
        assert registry.histogram("latency") is hist
        hist.observe(0.001)
        hist.observe(0.002)
        # a histogram scrapes as its observation count
        assert registry.scrape()["latency"] == 2.0


class TestSnapshot:
    def test_snapshot_types_every_metric(self, registry):
        registry.counter("c").increment(2)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["c"] == {"kind": "counter", "value": 2.0}
        assert snapshot["g"] == {"kind": "gauge", "value": 7.0}
        hist = snapshot["h"]
        assert hist["kind"] == "histogram"
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(0.5)
        assert "buckets" in hist

    def test_snapshot_is_json_round_trippable(self, registry):
        import json

        registry.histogram("h").observe(1.0)
        assert json.loads(json.dumps(registry.snapshot()))

    def test_quantile_from_snapshot_matches_histogram(self, registry):
        from repro.metrics import quantile_from_snapshot

        hist = registry.histogram("h")
        for value in (0.001, 0.003, 0.02, 0.4, 9.0):
            hist.observe(value)
        entry = registry.snapshot()["h"]
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert quantile_from_snapshot(entry, q) == hist.quantile(q)

    def test_quantile_from_snapshot_survives_json(self, registry):
        import json

        from repro.metrics import quantile_from_snapshot

        hist = registry.histogram("h")
        hist.observe(0.002)
        hist.observe(0.04)
        entry = json.loads(json.dumps(registry.snapshot()))["h"]
        assert quantile_from_snapshot(entry, 0.5) == hist.quantile(0.5)

    def test_quantile_from_snapshot_empty_and_range(self):
        from repro.metrics import quantile_from_snapshot

        empty = {"count": 0, "buckets": {}}
        assert quantile_from_snapshot(empty, 0.99) == 0.0
        with pytest.raises(MetricError):
            quantile_from_snapshot(empty, 1.5)
