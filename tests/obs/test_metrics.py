"""Tests of the metrics registry and its worker-snapshot merging."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import (
    MetricsRegistry,
    active_registry,
    counter,
    gauge,
    histogram,
    registry_override,
)


class TestCounter:
    def test_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4.0)
        assert registry.counter("c").value == 5.0

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match="increase"):
            MetricsRegistry().counter("c").inc(-1.0)


class TestGauge:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(3)
        registry.gauge("g").set(7)
        assert registry.gauge("g").value == 7.0


class TestHistogram:
    def test_summary_tracks_count_total_min_max_mean(self):
        registry = MetricsRegistry()
        for value in (2.0, 8.0, 5.0):
            registry.histogram("h").observe(value)
        assert registry.histogram("h").summary() == {
            "count": 3,
            "total": 15.0,
            "min": 2.0,
            "max": 8.0,
            "mean": 5.0,
            "buckets": {"1": 1, "3": 2},  # (1,2] holds 2.0; (4,8] holds 5,8
        }

    def test_empty_summary_is_all_zero(self):
        assert MetricsRegistry().histogram("h").summary() == {
            "count": 0,
            "total": 0.0,
            "min": 0.0,
            "max": 0.0,
            "mean": 0.0,
            "buckets": {},
        }

    def test_quantile_extremes_are_exact(self):
        h = MetricsRegistry().histogram("h")
        for value in (0.003, 1.7, 42.0, 900.0):
            h.observe(value)
        assert h.quantile(0.0) == 0.003
        assert h.quantile(1.0) == 900.0

    def test_quantile_bounds_within_a_factor_of_two(self):
        h = MetricsRegistry().histogram("h")
        values = sorted(float(v) for v in range(1, 101))
        for value in values:
            h.observe(value)
        for q in (0.1, 0.5, 0.9, 0.99):
            exact = values[int(q * 100) - 1]
            bound = h.quantile(q)
            assert exact <= bound <= 2 * exact

    def test_quantile_empty_and_domain(self):
        h = MetricsRegistry().histogram("h")
        assert h.quantile(0.5) == 0.0
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            h.quantile(1.5)

    def test_nonpositive_values_land_in_underflow_bucket(self):
        h = MetricsRegistry().histogram("h")
        h.observe(-3.0)
        h.observe(0.0)
        h.observe(4.0)
        assert h.quantile(0.0) == -3.0  # clamped into the exact envelope
        assert h.quantile(1.0) == 4.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_are_rejected_before_any_change(self, value):
        h = MetricsRegistry().histogram("h")
        h.observe(2.0)
        before = (h.count, h.total, h.min, h.max, dict(h.buckets))
        with pytest.raises(ValueError, match="finite"):
            h.observe(value)
        with pytest.raises(ValueError, match="finite"):
            h.observe_many([1.0] * 20 + [value])
        assert (h.count, h.total, h.min, h.max, dict(h.buckets)) == before

    @pytest.mark.parametrize("seed", range(4))
    def test_observe_many_matches_an_observe_loop(self, seed):
        """Zeros, negatives, subnormals and the 2**-40 underflow edge
        land in the same buckets as one ``observe`` per value."""
        edge = 2.0**-40
        special = [
            0.0, -0.0, -1.5, -5e-324, 5e-324, 2.2e-308, edge,
            np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), 0.25, 3.0,
        ]
        rng = np.random.default_rng(seed)
        values = rng.choice(special + list(rng.random(5)), size=64)
        values[rng.random(64) < 0.5] = 0.0
        batch = MetricsRegistry().histogram("h")
        batch.observe_many(values)
        loop = MetricsRegistry().histogram("h")
        for value in values.tolist():
            loop.observe(value)
        assert (batch.count, batch.min, batch.max, batch.buckets) == (
            loop.count, loop.min, loop.max, loop.buckets
        )
        assert batch.total == float(values.sum())
        assert batch.total == pytest.approx(loop.total, abs=1e-12)

    def test_observe_many_of_only_non_positive_values(self):
        h = MetricsRegistry().histogram("h")
        h.observe_many(np.zeros(20))
        h.observe_many(-np.ones(20))
        assert h.buckets == {-41: 40}  # the underflow bucket
        assert (h.count, h.min, h.max, h.total) == (40, -1.0, 0.0, -20.0)

    def test_quantiles_survive_merge(self):
        """Serial and merged-parallel histograms answer identically."""
        serial = MetricsRegistry()
        parent = MetricsRegistry()
        chunks = ((0.5, 3.0, 12.0), (0.25, 80.0), (7.0,))
        for chunk in chunks:
            worker = MetricsRegistry()
            for value in chunk:
                serial.histogram("h").observe(value)
                worker.histogram("h").observe(value)
            parent.merge(worker.snapshot())
        for q in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
            assert parent.histogram("h").quantile(q) == serial.histogram(
                "h"
            ).quantile(q)


class TestRegistry:
    def test_snapshot_is_sorted_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(4.0)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "z"]
        assert snapshot["counters"] == {"a": 2.0, "z": 1.0}
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["histograms"]["h"]["count"] == 1
        assert json.dumps(snapshot)  # JSON-able throughout

    def test_merge_adds_counters_overwrites_gauges_combines_histograms(self):
        parent = MetricsRegistry()
        parent.counter("c").inc(10)
        parent.gauge("g").set(1)
        parent.histogram("h").observe(2.0)

        worker = MetricsRegistry()
        worker.counter("c").inc(5)
        worker.counter("new").inc()
        worker.gauge("g").set(9)
        worker.histogram("h").observe(6.0)

        parent.merge(worker.snapshot())
        assert parent.counter("c").value == 15.0
        assert parent.counter("new").value == 1.0
        assert parent.gauge("g").value == 9.0
        assert parent.histogram("h").summary() == {
            "count": 2,
            "total": 8.0,
            "min": 2.0,
            "max": 6.0,
            "mean": 4.0,
            "buckets": {"1": 1, "3": 1},
        }

    def test_merge_skips_empty_histograms(self):
        parent = MetricsRegistry()
        parent.merge(
            {"histograms": {"h": {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0}}}
        )
        assert parent.histogram("h").count == 0
        assert parent.histogram("h").min > 1e300  # still the +inf sentinel

    def test_merge_then_snapshot_equals_serial(self):
        """The parallel invariant: merged worker snapshots == one registry."""
        serial = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 4.0):
            serial.counter("c").inc(value)
            serial.histogram("h").observe(value)

        parent = MetricsRegistry()
        for chunk in ((1.0, 2.0), (3.0, 4.0)):
            worker = MetricsRegistry()
            for value in chunk:
                worker.counter("c").inc(value)
                worker.histogram("h").observe(value)
            parent.merge(worker.snapshot())
        assert parent.snapshot() == serial.snapshot()

    def test_to_jsonl_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(2)
        registry.histogram("h").observe(1.0)
        parsed = [json.loads(line) for line in registry.to_jsonl().splitlines()]
        kinds = {(entry["kind"], entry["name"]) for entry in parsed}
        assert kinds == {("counter", "c"), ("gauge", "g"), ("histogram", "h")}

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestContextLocalRegistry:
    def test_helpers_write_to_active_registry(self):
        with registry_override() as registry:
            counter("c").inc()
            gauge("g").set(2)
            histogram("h").observe(3.0)
            assert registry.counter("c").value == 1.0
            assert active_registry() is registry

    def test_override_isolates_from_default(self):
        baseline = active_registry().counter("isolation.probe").value
        with registry_override():
            counter("isolation.probe").inc(100)
        assert active_registry().counter("isolation.probe").value == baseline

    def test_override_restores_on_exception(self):
        outer = active_registry()
        with pytest.raises(RuntimeError):
            with registry_override():
                raise RuntimeError("boom")
        assert active_registry() is outer
