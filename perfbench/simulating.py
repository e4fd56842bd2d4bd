"""The ``sim-monitored`` workload: ``simulate_batch`` at jobs=2.

Six-version Fig. 2 defaults, the targeted monitor policy, a stationary
initial census and per-round totals folded by ``watch_batch_report``
against the analytic Eq. 1 target — the validation engineer's
cross-check of Eq. 1 against simulated, monitored traffic.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np
from repro.obs.metrics import registry_override
from repro.obs.watch import batch_watch_config, watch_batch_report
from repro.perception.evaluation import evaluate
from repro.perception.parameters import PerceptionParameters
from repro.simulation.batch import (
    BatchConfig,
    BatchMonitorConfig,
    SeedSchedule,
    simulate_batch,
    tally_rounds,
)
from repro.verify.oracles import wilson_interval

from harness import Outcome, PeakRss, Spans, median, overhead, paired, percentile, setup_probe

JOBS = 2
GROUPS = 8192
ROUNDS = 1200  # two rejuvenation-clock ticks (interval 600 s, period 1 s)
CHUNK = 1024  # eight chunks per batch
SETUPS = 3


def prepare(seed: int):
    """``(config factory, Eq. 1 target)``; solves the model once."""
    parameters = PerceptionParameters.six_version_defaults()
    base = BatchConfig(
        parameters=parameters,
        groups=GROUPS,
        rounds=ROUNDS,
        request_period=1.0,
        seed=0,
        chunk_size=CHUNK,
        monitor=BatchMonitorConfig(mode="targeted"),
        record_round_totals=True,
    ).with_stationary_init()
    target = evaluate(parameters).expected_reliability

    def config(batch: int):
        return dataclasses.replace(base, seed=seed * 1000 + batch)

    return config, target


def _check_batch(config, report, watcher, target, outcome: Outcome) -> bool:
    expected = config.groups * (config.rounds - config.warmup_rounds)
    low, high = wilson_interval(report.requests - report.errors, report.requests)
    half = (high - low) / 2.0
    return all(
        (
            outcome.check(
                f"sim-monitored seed {config.seed}: exact request count",
                report.requests == expected,
                f"{report.requests} of {expected}",
            ),
            outcome.check(
                f"sim-monitored seed {config.seed}: zero alerts on the clean stream",
                not watcher.log.events,
                f"{watcher.windows_seen} windows, {len(watcher.log.events)} alert events",
            ),
            outcome.check(
                f"sim-monitored seed {config.seed}: safe-skip E[R] >= Eq. 1 target "
                "- Wilson half-width",
                report.reliability_safe_skip >= target - half,
                f"{report.reliability_safe_skip:.6f} vs {target:.6f} - {half:.6f}",
            ),
        )
    )


def sim_monitored(seed: int, seconds: float, trace: bool, outcome: Outcome) -> Spans:
    times = setup_probe(f"import simulating; simulating.prepare({seed})", SETUPS)
    outcome.metrics["setup_s"] = median(times)
    outcome.note(
        "set-ups (fresh interpreter: imports + stationary census + Eq. 1 "
        "target, s): " + ", ".join(f"{t:.4f}" for t in times)
    )
    config, target = prepare(seed)

    walls, reports = [], []
    with PeakRss(os.getpid()) as memory:
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < seconds:
            batch = config(len(walls))
            began = time.perf_counter()
            with registry_override():
                report = simulate_batch(batch, jobs=JOBS)
            watcher = watch_batch_report(
                batch, report, batch_watch_config(batch, target=target)
            )
            walls.append(time.perf_counter() - began)
            reports.append(report)
            outcome.attempted += report.requests
            if not _check_batch(batch, report, watcher, target, outcome):
                outcome.failed += report.requests
    outcome.metrics["peak_rss_mb"] = memory.peak_mib
    total = sum(walls)
    outcome.metrics["ops_per_s"] = outcome.attempted / total
    outcome.metrics["latency_p50_ms"] = 1000.0 * percentile(walls, 50)
    outcome.metrics["latency_p90_ms"] = 1000.0 * percentile(walls, 90)
    outcome.metrics["latency_p99_ms"] = 1000.0 * percentile(walls, 99)
    outcome.note(
        f"{len(walls)} batches of {GROUPS} groups x {ROUNDS} rounds "
        f"({GROUPS // CHUNK} chunks) at jobs={JOBS} in {total:.3f} s; "
        "ops_per_s is voted requests / s over all of them; latency is per "
        f"batch (n={len(walls)}; p90/p99 are the slowest batch)"
    )
    if trace:
        return _trace(config(0), reports[0], target, median(walls), outcome)
    return Spans(False)


def _trace(batch, served, target, jobs2_wall, outcome: Outcome) -> Spans:
    """Time each layer of one batch from outside, each call in a span."""
    parameters = batch.parameters
    n = parameters.n_modules
    ident = f"batch-{batch.seed}"
    results = {}
    seconds = {}

    def runtime(spans):
        with spans("sim.runtime", ident), registry_override():
            return simulate_batch(dataclasses.replace(batch, monitor=None), jobs=1)

    def monitored(spans):
        with spans("sim.monitored", ident), registry_override():
            return simulate_batch(batch, jobs=1)

    def schedule(spans):
        draws = SeedSchedule(batch.seed, n)
        with spans("sim.schedule", ident):
            for chunk in range(batch.chunk_count):
                groups = batch.chunk_groups(chunk)
                draws.init_draws(chunk, groups)
                for k in range(batch.rounds):
                    draws.round_draws(chunk, k, groups)

    rng = np.random.default_rng(batch.seed)
    shapes = [
        (
            rng.integers(-1, batch.n_labels, size=(batch.chunk_groups(c), n)),
            rng.integers(0, batch.n_labels, size=batch.chunk_groups(c)),
        )
        for c in range(batch.chunk_count)
    ]

    def vote(spans):
        with spans("sim.vote", ident):
            for labels, truth in shapes:
                for _ in range(batch.rounds):
                    tally_rounds(labels, truth, batch.n_labels, parameters.voting_scheme)

    def fold(spans):
        with spans("watch.fold", ident):
            return watch_batch_report(
                batch, served, batch_watch_config(batch, target=target)
            )

    steps = {
        "runtime": runtime,
        "monitored": monitored,
        "schedule": schedule,
        "vote": vote,
        "fold": fold,
    }

    def run_unit(name, spans):
        began = time.perf_counter()
        result = steps[name](spans)
        if spans.enabled:
            results[name] = result
            seconds[name] = time.perf_counter() - began

    spans, walls = paired(list(steps), run_unit)
    jobs1 = results["monitored"]
    outcome.check(
        "trace: the jobs=1 replay equals the jobs=2 batch (E[R] within "
        "1e-12, same request count)",
        jobs1.requests == served.requests
        and abs(jobs1.reliability_safe_skip - served.reliability_safe_skip) <= 1e-12,
        f"{jobs1.reliability_safe_skip!r} vs {served.reliability_safe_skip!r}",
    )
    metrics = outcome.metrics
    metrics["sim.runtime_ms"] = spans.mean_ms("sim.runtime")
    metrics["sim.monitor_ms"] = 1000.0 * (seconds["monitored"] - seconds["runtime"])
    metrics["sim.schedule_ms"] = spans.mean_ms("sim.schedule")
    metrics["sim.vote_ms"] = spans.mean_ms("sim.vote")
    metrics["sim.efficiency"] = seconds["monitored"] / (JOBS * jobs2_wall)
    metrics["sim.rejuvenations"] = float(served.transitions["rejuvenation-start"].sum())
    metrics["sim.flagged"] = float(served.monitor.flags)
    metrics["watch.fold_ms"] = spans.mean_ms("watch.fold")
    metrics["watch.windows"] = float(results["fold"].windows_seen)
    metrics["trace.overhead"] = overhead(walls)
    outcome.note(
        f"sim.efficiency = {seconds['monitored']:.3f} s at jobs=1 / "
        f"({JOBS} x {jobs2_wall:.3f} s at jobs={JOBS}); sim.monitor_ms = "
        "monitored - unmonitored at jobs=1; sim.schedule_ms and sim.vote_ms "
        f"cover all {batch.chunk_count} chunks x {batch.rounds} rounds"
    )
    return spans
