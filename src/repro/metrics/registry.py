"""A monitoring substrate: metrics, registration, and scraping.

§6.2.2 and the paper's flagship incident (§1) are about monitoring data
crossing system boundaries: "a deregistered monitor reported a value
'0' for the resource usage to the quota system, which misinterpreted
zero as the expected load". The discrepancy lives precisely in what a
*missing* metric reads as — so this registry makes that choice explicit
and configurable per scrape (:class:`AbsentPolicy`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "MetricError",
    "AbsentPolicy",
    "Gauge",
    "Counter",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "quantile_from_snapshot",
]

#: Bucket upper bounds (seconds) sized for sub-millisecond trial work.
DEFAULT_LATENCY_BUCKETS = (
    0.00001,
    0.000025,
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
)


class MetricError(ReproError):
    """A metric operation failed."""


class AbsentPolicy(enum.Enum):
    """What a scrape reports for a metric that is not registered.

    ``ZERO`` is the historical behaviour behind the GCP User-ID outage:
    downstream consumers cannot distinguish "no load" from "no monitor".
    ``ABSENT`` surfaces the difference (the scrape returns ``None``).
    ``ERROR`` refuses the read outright.
    """

    ZERO = "zero"
    ABSENT = "absent"
    ERROR = "error"


@dataclass
class Gauge:
    name: str
    value: float = 0.0
    description: str = ""

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Counter:
    name: str
    value: float = 0.0
    description: str = ""

    def increment(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"{self.name}: counters only move forward")
        self.value += amount


@dataclass
class Histogram:
    """A cumulative-bucket latency/size histogram.

    ``value`` reads as the observation count so that scrapes treat a
    histogram like any other metric (the distribution itself travels
    via :meth:`snapshot`).
    """

    name: str
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    description: str = ""

    def __post_init__(self) -> None:
        if tuple(self.buckets) != tuple(sorted(self.buckets)):
            raise MetricError(f"{self.name}: buckets must be sorted")
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0

    @property
    def value(self) -> float:
        return float(self._count)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[index] += 1
                return
        self._counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket bounds (upper-bound biased)."""
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"{self.name}: quantile {q} out of [0, 1]")
        if not self._count:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for index, bound in enumerate(self.buckets):
            cumulative += self._counts[index]
            if cumulative >= rank:
                return bound
        return self.buckets[-1] if self.buckets else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (same buckets) into this one."""
        if tuple(other.buckets) != tuple(self.buckets):
            raise MetricError(
                f"{self.name}: cannot merge histogram with different buckets"
            )
        for index, count in enumerate(other._counts):
            self._counts[index] += count
        self._count += other._count
        self._sum += other._sum

    def snapshot(self) -> dict:
        return {
            "count": self._count,
            "sum": self._sum,
            "buckets": {
                str(bound): self._counts[index]
                for index, bound in enumerate(self.buckets)
            },
            "overflow": self._counts[-1],
        }


@dataclass
class MetricsRegistry:
    """One system's exported metrics, scraped by other systems."""

    system: str
    _metrics: dict[str, Gauge | Counter | Histogram] = field(default_factory=dict)
    #: names that were registered once but have since been deregistered
    _deregistered: set[str] = field(default_factory=set)

    # -- registration ------------------------------------------------------

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._register(
            name, lambda: Gauge(name, description=description)
        )

    def counter(self, name: str, description: str = "") -> Counter:
        return self._register(
            name, lambda: Counter(name, description=description)
        )

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        description: str = "",
    ) -> Histogram:
        return self._register(
            name,
            lambda: Histogram(name, buckets=buckets, description=description),
        )

    def _register(self, name: str, build):
        """The metric registered as ``name``; ``build()`` makes (and
        validates) a new one only when the name is not taken yet."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = build()
            self._deregistered.discard(name)
        return metric

    def deregister(self, name: str) -> None:
        """Remove a metric (e.g. its reporter was decommissioned)."""
        if name in self._metrics:
            del self._metrics[name]
            self._deregistered.add(name)

    def is_registered(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Gauge | Counter | Histogram | None:
        """The registered metric object itself, or ``None``.

        The public counterpart of reaching into ``_metrics``: exporters
        that need more than :meth:`read`'s scalar (histogram snapshots,
        descriptions) go through here.
        """
        return self._metrics.get(name)

    def items(self) -> list[tuple[str, Gauge | Counter | Histogram]]:
        """``(name, metric)`` pairs in name order — the iteration API
        exporters and renderers use instead of the private dict."""
        return sorted(self._metrics.items())

    # -- scraping -------------------------------------------------------------

    def read(
        self, name: str, absent_policy: AbsentPolicy = AbsentPolicy.ZERO
    ) -> float | None:
        """What a cross-system consumer sees for ``name``."""
        metric = self._metrics.get(name)
        if metric is not None:
            return metric.value
        if absent_policy is AbsentPolicy.ZERO:
            # the GCP-outage behaviour: silence reads as zero
            return 0.0
        if absent_policy is AbsentPolicy.ABSENT:
            return None
        raise MetricError(
            f"{self.system}: metric {name!r} is not registered"
            + (" (was deregistered)" if name in self._deregistered else "")
        )

    def scrape(
        self, absent_policy: AbsentPolicy = AbsentPolicy.ZERO
    ) -> dict[str, float]:
        del absent_policy  # registered metrics are never absent here
        return {name: metric.value for name, metric in sorted(self._metrics.items())}

    def snapshot(self) -> dict[str, dict]:
        """Every registered metric as plain JSON-ready data.

        ``{name: {"kind": "gauge"|"counter"|"histogram", ...}}`` in name
        order. Gauges and counters carry ``value``; histograms carry
        ``count``/``sum``/``buckets``/``overflow`` (the same shape as
        :meth:`Histogram.snapshot`, with buckets in ascending-bound
        order). This is the one export surface — ``--metrics-json``,
        ``trace summarize``, the campaign ledger and the status server
        all read it — so nothing outside this module needs to know which
        concrete metric class sits behind a name.
        """
        out: dict[str, dict] = {}
        for name, metric in self.items():
            if isinstance(metric, Histogram):
                out[name] = {"kind": "histogram", **metric.snapshot()}
            elif isinstance(metric, Counter):
                out[name] = {"kind": "counter", "value": metric.value}
            else:
                out[name] = {"kind": "gauge", "value": metric.value}
        return out


def quantile_from_snapshot(entry: dict, q: float) -> float:
    """:meth:`Histogram.quantile`, recomputed from a snapshot entry.

    ``entry`` is one histogram value out of
    :meth:`MetricsRegistry.snapshot` (or its JSON round trip — bucket
    keys are stringified bounds and stay in ascending order either
    way), so consumers can derive percentiles without holding the live
    :class:`Histogram` object. Upper-bound biased, exactly like the
    live method.
    """
    if not 0.0 <= q <= 1.0:
        raise MetricError(f"quantile {q} out of [0, 1]")
    count = int(entry.get("count", 0))
    buckets = entry.get("buckets", {})
    if not count:
        return 0.0
    rank = q * count
    cumulative = 0
    bound = 0.0
    for text, bucket_count in buckets.items():
        bound = float(text)
        cumulative += int(bucket_count)
        if cumulative >= rank:
            return bound
    return bound if buckets else 0.0
