"""Tests of deterministic chunking and ordered parallel reassembly."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine import SweepPlan, chunk_points, resolve_jobs, sweep
from repro.errors import ParameterError


def _square_minus(value: float, offset: float = 0.0) -> float:
    """Module-level (hence picklable) point function for pool tests."""
    return value * value - offset


class TestResolveJobs:
    def test_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_none_and_zero_mean_all_cpus(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError, match="jobs"):
            resolve_jobs(-2)


class TestChunkPoints:
    @given(st.integers(0, 500), st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_chunks_partition_the_index_space(self, n_points, jobs):
        chunks = chunk_points(n_points, jobs)
        flattened = [index for chunk in chunks for index in chunk]
        assert flattened == list(range(n_points))

    @given(st.integers(0, 500), st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_chunking_is_deterministic(self, n_points, jobs):
        assert chunk_points(n_points, jobs) == chunk_points(n_points, jobs)

    def test_explicit_chunk_size(self):
        assert chunk_points(10, 4, chunk_size=3) == [
            range(0, 3),
            range(3, 6),
            range(6, 9),
            range(9, 10),
        ]

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ParameterError, match="chunk_size"):
            chunk_points(10, 4, chunk_size=0)


class TestSweepPlan:
    def test_add_returns_consecutive_indices(self):
        plan = SweepPlan(_square_minus)
        assert [plan.add(float(v)) for v in range(5)] == [0, 1, 2, 3, 4]
        assert len(plan) == 5

    def test_over_builds_single_argument_points(self):
        plan = SweepPlan.over(_square_minus, [1.0, 2.0, 3.0])
        assert plan.run() == [1.0, 4.0, 9.0]

    def test_empty_plan_runs_to_empty(self):
        assert SweepPlan(_square_minus).run(jobs=4) == []

    def test_results_come_back_in_point_order(self):
        plan = SweepPlan(_square_minus)
        values = [float(v) for v in range(37)]
        for value in values:
            plan.add(value, 1.0)
        serial = plan.run(jobs=1)
        assert serial == [v * v - 1.0 for v in values]

    def test_parallel_equals_serial(self):
        plan = SweepPlan(_square_minus)
        for value in range(23):
            plan.add(float(value), 0.5)
        assert plan.run(jobs=4) == plan.run(jobs=1)

    def test_parallel_respects_chunk_size(self):
        plan = SweepPlan.over(_square_minus, [float(v) for v in range(11)])
        assert plan.run(jobs=2, chunk_size=2) == plan.run(jobs=1)

    def test_sweep_convenience(self):
        assert sweep(_square_minus, [2.0, 3.0], jobs=2) == [4.0, 9.0]


def _instrumented(value: int) -> int:
    from repro.obs import counter, emit, span

    counter("test.calls").inc()
    emit("test.event", value=value)
    with span("test.inner"):
        return value + 1


class TestRunCaptured:
    def test_captures_every_channel_under_a_fresh_clock(self):
        from repro.engine import run_captured
        from repro.obs import ManualClock, active_registry, use_clock

        with use_clock(ManualClock()):
            policy = {
                "clock": {"kind": "manual", "start": 0.0, "step": 1.0},
                "trace": True,
                "events": True,
            }
            first = run_captured(_instrumented, (4,), policy, "root", tag="x")
            second = run_captured(_instrumented, (4,), policy, "root", tag="x")
        assert first.value == 5
        assert [r.name for r in first.records] == ["root", "test.inner"]
        assert first.records[0].attrs == {"tag": "x"}
        assert [e["event"] for e in first.events] == ["test.event"]
        assert first.metrics["counters"] == {"test.calls": 1.0}
        assert first.seconds > 0
        # a fresh clock per call: the capture depends only on the call
        assert first == second
        # nothing leaked into the caller's registry
        assert "test.calls" not in active_registry().counters

    def test_channels_off_leave_records_and_events_empty(self):
        from repro.engine import run_captured
        from repro.obs import clock_settings

        policy = {"clock": clock_settings(), "trace": False, "events": False}
        captured = run_captured(_instrumented, (1,), policy, "root")
        assert captured.value == 2
        assert captured.records == [] and captured.events == []
        assert captured.metrics["counters"] == {"test.calls": 1.0}
