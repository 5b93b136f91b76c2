"""Metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is the single place a run's numbers live.
Metrics are identified by name plus a (possibly empty) label set, so
``registry.counter("monitor.alarms", kind="population_drift")`` and
``...(kind="fairness_drift")`` are distinct time series, the way every
production metrics system (Prometheus, statsd, OpenTelemetry) models it.

Histograms are fixed-bucket: observations land in predeclared buckets,
and quantiles (p50/p95/…) are read off the bucket upper bounds — O(1)
memory no matter how many observations arrive.  ``min``/``max``/``sum``
are tracked exactly.
"""

from __future__ import annotations

import bisect
from typing import Iterable

from repro.exceptions import DataError
from repro.obs.clock import Clock

#: Default histogram buckets (upper bounds): log-ish spacing that covers
#: sub-millisecond wall-clock durations and small tick counts alike.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)


def _labels_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, str] | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise DataError("counters only go up; use a gauge")
        self.value += float(amount)

    def to_dict(self) -> dict[str, object]:
        return {
            "record": "metric", "kind": self.kind, "name": self.name,
            "labels": dict(self.labels), "value": self.value,
        }


class Gauge:
    """A value that can go anywhere, with a sample history.

    Every :meth:`set` appends a ``(t, value)`` sample (``t`` from the
    registry's clock), so exports show the *trajectory* — e.g. privacy
    budget draining over a run — not just the final reading.
    """

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, str] | None = None,
                 clock: Clock | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._clock = clock
        self.samples: list[tuple[float, float]] = []

    @property
    def value(self) -> float:
        """The most recent sample (raises if never set)."""
        if not self.samples:
            raise DataError(f"gauge {self.name!r} was never set")
        return self.samples[-1][1]

    def set(self, value: float) -> None:
        """Record a new sample."""
        t = self._clock.now() if self._clock is not None \
            else float(len(self.samples))
        self.samples.append((t, float(value)))

    def inc(self, amount: float = 1.0) -> None:
        """Shift the gauge by ``amount`` (0 baseline when never set)."""
        current = self.samples[-1][1] if self.samples else 0.0
        self.set(current + amount)

    def to_dict(self) -> dict[str, object]:
        return {
            "record": "metric", "kind": self.kind, "name": self.name,
            "labels": dict(self.labels),
            "value": self.samples[-1][1] if self.samples else None,
            "n_samples": len(self.samples),
        }

    def sample_dicts(self) -> list[dict[str, object]]:
        """One ``gauge_sample`` record per :meth:`set` call."""
        return [
            {
                "record": "gauge_sample", "t": t, "name": self.name,
                "labels": dict(self.labels), "value": value,
            }
            for t, value in self.samples
        ]


#: Quantiles a histogram summarises by default (p50/p90/p95/p99).
DEFAULT_QUANTILES = (0.50, 0.90, 0.95, 0.99)


def quantile_key(q: float) -> str:
    """``0.95 -> "p95"``, ``0.999 -> "p99.9"`` — the export key for ``q``."""
    percent = q * 100.0
    if float(percent).is_integer():
        return f"p{int(percent)}"
    return f"p{percent:g}"


class Histogram:
    """Fixed-bucket distribution with exact min/max/sum.

    ``buckets`` are inclusive upper bounds; values above the last bound
    land in an implicit +inf overflow bucket.  Quantiles are bucket
    upper bounds (the overflow bucket reports the exact max), the same
    estimate Prometheus's ``histogram_quantile`` makes — except when
    every observation landed in a *single* bucket, where the bound
    carries no information and the exact min/max do: there quantiles
    interpolate linearly between min and max instead of collapsing to
    one degenerate bound.

    ``quantiles`` configures which estimates :meth:`summary` and
    :meth:`to_dict` export (default p50/p90/p95/p99).
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Iterable[float] | None = None,
                 labels: dict[str, str] | None = None,
                 quantiles: Iterable[float] | None = None):
        self.name = name
        self.labels = dict(labels or {})
        bounds = tuple(sorted(buckets if buckets is not None
                              else DEFAULT_BUCKETS))
        if not bounds:
            raise DataError("histogram needs at least one bucket bound")
        self.quantiles = tuple(quantiles if quantiles is not None
                               else DEFAULT_QUANTILES)
        for q in self.quantiles:
            if not 0.0 <= q <= 1.0:
                raise DataError(f"quantile {q!r} must be in [0, 1]")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = overflow
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (bucket upper bound)."""
        if not 0.0 <= q <= 1.0:
            raise DataError("quantile must be in [0, 1]")
        if self.count == 0:
            raise DataError(f"histogram {self.name!r} is empty")
        if sum(1 for c in self.counts if c) == 1:
            # Single occupied bucket: its bound says nothing about the
            # spread, but the exact min/max do — interpolate between
            # them instead of reporting one degenerate bound for every
            # quantile.
            return float(self.min) + q * (float(self.max) - float(self.min))
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index == len(self.bounds):  # overflow bucket
                    return float(self.max)
                return min(float(self.bounds[index]), float(self.max))
        return float(self.max)

    def summary(self) -> dict[str, object]:
        """Count/sum/mean/min/max plus every configured quantile.

        The dict is export-shaped (``p50``/``p90``/… keys), safe on an
        empty histogram (quantiles and mean are ``None``), and is the
        "profile shape" the serving layer's ``stats()`` reports latency
        percentiles in.
        """
        record: dict[str, object] = {
            "count": self.count, "sum": self.sum,
            "mean": self.mean if self.count else None,
            "min": self.min, "max": self.max,
        }
        for q in self.quantiles:
            record[quantile_key(q)] = (self.quantile(q) if self.count
                                       else None)
        return record

    @property
    def mean(self) -> float:
        """Exact arithmetic mean of the observations."""
        if self.count == 0:
            raise DataError(f"histogram {self.name!r} is empty")
        return self.sum / self.count

    def to_dict(self) -> dict[str, object]:
        record: dict[str, object] = {
            "record": "metric", "kind": self.kind, "name": self.name,
            "labels": dict(self.labels), "count": self.count,
            "sum": self.sum, "min": self.min, "max": self.max,
            "buckets": list(self.bounds), "bucket_counts": list(self.counts),
        }
        if self.count:
            for q in sorted(set(self.quantiles) | {0.50, 0.95}):
                record[quantile_key(q)] = self.quantile(q)
        return record


class MetricsRegistry:
    """Name+labels-keyed home for every metric of a run."""

    def __init__(self, clock: Clock | None = None):
        self._clock = clock
        self._metrics: dict[tuple, object] = {}

    def _get(self, kind: str, name: str, labels: dict[str, str],
             factory) -> object:
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif metric.kind != kind:
            raise DataError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        """Get-or-create the counter ``name{labels}``."""
        labels = {key: str(value) for key, value in labels.items()}
        return self._get(
            "counter", name, labels, lambda: Counter(name, labels)
        )

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get-or-create the gauge ``name{labels}``."""
        labels = {key: str(value) for key, value in labels.items()}
        return self._get(
            "gauge", name, labels,
            lambda: Gauge(name, labels, clock=self._clock),
        )

    def histogram(self, name: str, buckets: Iterable[float] | None = None,
                  quantiles: Iterable[float] | None = None,
                  **labels: str) -> Histogram:
        """Get-or-create the histogram ``name{labels}``.

        ``buckets`` and ``quantiles`` only apply on first creation;
        later calls reuse the existing layout.
        """
        labels = {key: str(value) for key, value in labels.items()}
        return self._get(
            "histogram", name, labels,
            lambda: Histogram(name, buckets, labels, quantiles=quantiles),
        )

    def __iter__(self):
        """Metrics in (name, labels) order."""
        return iter(
            metric for _, metric in sorted(
                self._metrics.items(), key=lambda item: item[0]
            )
        )

    def __len__(self) -> int:
        return len(self._metrics)

    def to_dicts(self) -> list[dict[str, object]]:
        """Summary record per metric plus per-sample gauge records."""
        records: list[dict[str, object]] = []
        for metric in self:
            records.append(metric.to_dict())
            if isinstance(metric, Gauge):
                records.extend(metric.sample_dicts())
        return records
