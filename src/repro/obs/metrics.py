"""Counters, gauges, and histograms for the solver/engine pipeline.

Metrics are always on — instrumentation points increment them once per
call with pre-aggregated totals (states explored, events simulated,
residuals observed), so the cost is a dictionary lookup per solver
invocation, not per inner-loop step.

The active registry is context-local with a process-wide default:
:func:`counter` / :func:`gauge` / :func:`histogram` read the registry of
the current context, and :func:`registry_override` installs a fresh one
for the extent of a block (tests, the trace CLI).  Worker processes
snapshot their registry per sweep chunk and the parent merges the
snapshots in deterministic point order, so counter totals are identical
between serial and parallel runs.

Export: :meth:`MetricsRegistry.snapshot` for in-memory consumption and
:meth:`MetricsRegistry.to_jsonl` for machine-readable dumps.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Counter:
    """A monotonically increasing total."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A last-write-wins instantaneous value."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Log2 bucket bounds: values below ``2**_BUCKET_FLOOR`` (and all
#: non-positive values) land in one underflow bucket, values above
#: ``2**_BUCKET_CEILING`` clamp into the top bucket.
_BUCKET_FLOOR = -40
_BUCKET_CEILING = 128
_UNDERFLOW_BUCKET = _BUCKET_FLOOR - 1


#: Largest array :meth:`Histogram.observe_many` folds element by element.
_SCALAR_FOLD = 8


def _bucket_of(value: float) -> int:
    if value <= 0.0 or value < 2.0**_BUCKET_FLOOR:
        return _UNDERFLOW_BUCKET
    exponent = math.ceil(math.log2(value))
    return min(max(exponent, _BUCKET_FLOOR), _BUCKET_CEILING)


def _bucket_upper(index: int) -> float:
    return 0.0 if index == _UNDERFLOW_BUCKET else 2.0**index


@dataclass
class Histogram:
    """Streaming summary of an observed distribution.

    Tracks count / total / min / max plus a sparse log2-bucketed count
    vector, which is enough for merge-stable quantile *bounds*: each
    observation lands in the bucket ``(2**(i-1), 2**i]``, so
    :meth:`quantile` answers within a factor of two (tightened by the
    exact extrema) at O(1) memory per decade of dynamic range.  Bucket
    counts add under :meth:`MetricsRegistry.merge`, so quantiles are
    identical between serial and merged parallel runs.
    """

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        """Fold in one finite value; NaN and ±inf raise ``ValueError``."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"histogram observations must be finite, got {value}")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = _bucket_of(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def observe_many(self, values: Any) -> None:
        """Fold a whole array of observations in at vectorized cost.

        Merge-equivalent to calling :meth:`observe` once per element:
        count, min, max, and every bucket count come out identical
        (non-positive values go straight to the underflow bucket, and
        the scalar :func:`_bucket_of` indexes each *unique* positive
        value, so boundary rounding matches the scalar path bit for
        bit); only ``total`` may differ by float-summation
        order, the same caveat :meth:`MetricsRegistry.merge` carries.
        Arrays of up to :data:`_SCALAR_FOLD` values go through
        :meth:`observe` one by one, which is cheaper at that size.
        """
        import numpy  # deferred: keep the obs core stdlib-only on import

        array = numpy.asarray(values, dtype=float).ravel()
        if not numpy.isfinite(array).all():
            raise ValueError("histogram observations must be finite")
        if array.size <= _SCALAR_FOLD:
            for value in array.tolist():
                self.observe(value)
            return
        self.count += int(array.size)
        self.total += float(array.sum())
        low = float(array.min())
        high = float(array.max())
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        positive = array[array > 0.0]
        if positive.size < array.size:
            self.buckets[_UNDERFLOW_BUCKET] = self.buckets.get(
                _UNDERFLOW_BUCKET, 0
            ) + int(array.size - positive.size)
        unique, counts = numpy.unique(positive, return_counts=True)
        for value, count in zip(unique.tolist(), counts.tolist()):
            index = _bucket_of(value)
            self.buckets[index] = self.buckets.get(index, 0) + int(count)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """An upper bound on the ``q``-quantile of the observations.

        The bound is the upper edge of the bucket holding the
        ``ceil(q * count)``-th smallest observation, clamped into the
        exact ``[min, max]`` envelope — so ``quantile(0.0)`` and
        ``quantile(1.0)`` are exact, and interior quantiles are tight
        to within the log2 bucket width.  Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                return min(max(_bucket_upper(index), self.min), self.max)
        return self.max

    def summary(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
        }


@dataclass
class MetricsRegistry:
    """A named collection of counters, gauges, and histograms."""

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        found = self.counters.get(name)
        if found is None:
            found = self.counters[name] = Counter()
        return found

    def gauge(self, name: str) -> Gauge:
        found = self.gauges.get(name)
        if found is None:
            found = self.gauges[name] = Gauge()
        return found

    def histogram(self, name: str) -> Histogram:
        found = self.histograms.get(name)
        if found is None:
            found = self.histograms[name] = Histogram()
        return found

    def snapshot(self) -> dict[str, Any]:
        """Plain-data copy of every metric (picklable, JSON-able)."""
        return {
            "counters": {
                name: metric.value for name, metric in sorted(self.counters.items())
            },
            "gauges": {
                name: metric.value for name, metric in sorted(self.gauges.items())
            },
            "histograms": {
                name: metric.summary()
                for name, metric in sorted(self.histograms.items())
            },
        }

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry.

        Counters add, gauges take the incoming value (merges happen in
        deterministic point order), histograms combine their summaries.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name)
            count = int(summary.get("count", 0))
            if count == 0:
                continue
            histogram.count += count
            histogram.total += float(summary.get("total", 0.0))
            histogram.min = min(histogram.min, float(summary["min"]))
            histogram.max = max(histogram.max, float(summary["max"]))
            for index, bucket_count in summary.get("buckets", {}).items():
                index = int(index)
                histogram.buckets[index] = (
                    histogram.buckets.get(index, 0) + int(bucket_count)
                )

    def to_jsonl(self) -> str:
        """One JSON object per metric: ``{"kind", "name", ...}`` lines."""
        snapshot = self.snapshot()
        lines = []
        for name, value in snapshot["counters"].items():
            lines.append(
                json.dumps(
                    {"kind": "counter", "name": name, "value": value},
                    sort_keys=True,
                )
            )
        for name, value in snapshot["gauges"].items():
            lines.append(
                json.dumps(
                    {"kind": "gauge", "name": name, "value": value}, sort_keys=True
                )
            )
        for name, summary in snapshot["histograms"].items():
            lines.append(
                json.dumps(
                    {"kind": "histogram", "name": name, **summary}, sort_keys=True
                )
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


_default_registry = MetricsRegistry()
_registry: ContextVar[MetricsRegistry] = ContextVar(
    "repro_obs_metrics", default=_default_registry
)


def active_registry() -> MetricsRegistry:
    """The registry metrics helpers write to in the current context."""
    return _registry.get()


def counter(name: str) -> Counter:
    return _registry.get().counter(name)


def gauge(name: str) -> Gauge:
    return _registry.get().gauge(name)


def histogram(name: str) -> Histogram:
    return _registry.get().histogram(name)


@contextmanager
def registry_override(registry: MetricsRegistry | None = None):
    """Install a fresh (or given) registry for the extent of the block."""
    registry = registry if registry is not None else MetricsRegistry()
    token = _registry.set(registry)
    try:
        yield registry
    finally:
        _registry.reset(token)
