"""Monitoring-layer benchmarks: observer-hook overhead and policy runs.

The monitor rides on every vote round, so its cost is paid per request.
``bench_monitor_overhead`` measures the same run bare and with a
passive monitor attached and asserts the slowdown stays within bounds;
the policy benchmarks track the end-to-end cost of the closed loop.
"""

import time

from repro.experiments.monitor import run_monitor_policies, run_policy
from repro.monitor import MonitorController
from repro.perception.parameters import PerceptionParameters
from repro.simulation import PerceptionRuntime

HORIZON = 20000.0


def _run(monitored: bool):
    parameters = PerceptionParameters.six_version_defaults()
    monitor = (
        MonitorController(parameters) if monitored else None
    )
    runtime = PerceptionRuntime(
        parameters, request_period=1.0, seed=0, monitor=monitor
    )
    return runtime.run(HORIZON)


def bench_monitor_overhead(benchmark):
    """Per-round cost of passive monitoring vs the bare runtime."""
    bare_start = time.perf_counter()
    bare = _run(monitored=False)
    bare_elapsed = time.perf_counter() - bare_start

    monitored = benchmark.pedantic(
        _run, kwargs={"monitored": True}, rounds=1, iterations=1
    )

    # passive monitoring must not perturb the trajectory...
    assert (monitored.requests, monitored.correct, monitored.errors) == (
        bare.requests,
        bare.correct,
        bare.errors,
    )
    # ...and its per-round cost must stay a small multiple of the bare
    # event loop (generous bound: CI machines are noisy)
    elapsed = benchmark.stats.stats.mean
    overhead = elapsed / bare_elapsed if bare_elapsed > 0 else 1.0
    print(
        f"\nbare: {bare_elapsed:.3f} s, monitored: {elapsed:.3f} s "
        f"({overhead:.2f}x, {elapsed / monitored.requests * 1e6:.1f} us/round)"
    )
    assert overhead < 10.0


def bench_active_policy_run(benchmark):
    """End-to-end closed loop with the threshold policy driving."""
    parameters = PerceptionParameters.six_version_defaults()

    def run():
        return run_policy(
            parameters, "threshold", duration=HORIZON, seed=0
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.report.requests > 19000


def bench_monitor_policies_experiment(regenerate):
    """Full policy-comparison experiment (the ``monitor-policies`` id)."""
    report = regenerate(run_monitor_policies)
    assert len(report.rows) == 6
