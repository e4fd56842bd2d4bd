"""Pin whole batch reports, at chunk scale, to recorded SHA-256 digests.

The differential harness proves the batch runtime equal to the scalar
reference on small chunks; these regressions hold full-size chunks
(1024 groups) to recorded trajectories.  Each digest covers every
:class:`~repro.simulation.batch.runtime.BatchReport` field except the
wall-clock ones — counts, per-group arrays, transitions, census,
outcomes, rejuvenations, round totals and the whole monitor report —
plus every ``monitor.*`` counter and histogram of the run's registry.
Any change to what a round computes, or to the order of its float
operations, moves at least one digest.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.obs.metrics import registry_override
from repro.perception.parameters import PerceptionParameters
from repro.simulation import (
    AgreementModel,
    AttackCampaign,
    BatchConfig,
    BatchMonitorConfig,
    simulate_batch,
)

#: Report fields that measure the run, not the trajectory.
UNPINNED = ("jobs", "wall_seconds", "throughput")


def _six_targeted() -> BatchConfig:
    return BatchConfig(
        parameters=PerceptionParameters.six_version_defaults(),
        groups=1024,
        rounds=600,
        request_period=2.0,
        seed=29,
        monitor=BatchMonitorConfig(mode="targeted"),
        record_round_totals=True,
    ).with_stationary_init()


def _threshold_attack() -> BatchConfig:
    return BatchConfig(
        parameters=PerceptionParameters.six_version_defaults(),
        groups=1024,
        rounds=300,
        request_period=2.0,
        seed=7,
        chunk_size=512,
        campaign=AttackCampaign.periodic(
            period=200.0, burst_duration=60.0, intensity=8.0, horizon=600.0
        ),
        monitor=BatchMonitorConfig(mode="threshold"),
        record_round_totals=True,
    ).with_stationary_init()


def _per_label() -> BatchConfig:
    return BatchConfig(
        parameters=PerceptionParameters.six_version_defaults(),
        groups=1024,
        rounds=300,
        request_period=2.0,
        seed=3,
        agreement=AgreementModel.PER_LABEL,
        n_labels=5,
        record_outcomes=True,
        record_rejuvenations=True,
    )


def _four_version() -> BatchConfig:
    return BatchConfig(
        parameters=PerceptionParameters.four_version_defaults(),
        groups=1024,
        rounds=300,
        warmup_rounds=50,
        request_period=2.0,
        seed=11,
        monitor=BatchMonitorConfig(mode="observe"),
        record_outcomes=True,
        record_round_totals=True,
    )


RUNS = {
    "six-targeted-stationary": _six_targeted,
    "threshold-attack": _threshold_attack,
    "per-label-recorded": _per_label,
    "four-version-no-rejuvenation": _four_version,
}

#: Recorded digests, one per run.
DIGESTS = {
    "six-targeted-stationary": (
        "b81717cc21f04131ecf2332d422f72d4"
        "29d354946a21f1af5ebb8ddbcd35e04e"
    ),
    "threshold-attack": (
        "35553ebc6e5b3120292ba31e42aec965"
        "9c65d53f4afbb81f616e5522eae02760"
    ),
    "per-label-recorded": (
        "2142f6f1f5c82fab6cbd7b864dad3c2a"
        "978cb7e22c463857bb4d8f0bc7416bad"
    ),
    "four-version-no-rejuvenation": (
        "0ed53c9a9edfb2f2a79702ab4da58fe5"
        "908032840e527354f43dd77ab45d4510"
    ),
}


def _feed(digest, name: str, value) -> None:
    digest.update(name.encode())
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            _feed(digest, f"{name}.{key}", value[key])
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _feed(digest, f"{name}.{field.name}", getattr(value, field.name))
    else:
        digest.update(repr(value).encode())


def monitor_metrics(registry) -> dict:
    """Every ``monitor.*`` counter value and histogram summary."""
    snapshot = {
        name: counter.value
        for name, counter in registry.counters.items()
        if name.startswith("monitor.")
    }
    snapshot.update(
        (name, histogram.summary())
        for name, histogram in registry.histograms.items()
        if name.startswith("monitor.")
    )
    return snapshot


def run_digest(config: BatchConfig, *, jobs: int = 1) -> "tuple[str, dict]":
    """``(sha256 of the report and monitor metrics, monitor metrics)``."""
    with registry_override() as registry:
        report = simulate_batch(config, jobs=jobs)
    digest = hashlib.sha256()
    for field in dataclasses.fields(report):
        if field.name not in UNPINNED:
            _feed(digest, field.name, getattr(report, field.name))
    metrics = monitor_metrics(registry)
    _feed(digest, "registry", metrics)
    return digest.hexdigest(), metrics


@pytest.mark.parametrize("run", sorted(RUNS))
def test_report_digest_is_pinned(run):
    digest, _ = run_digest(RUNS[run]())
    assert digest == DIGESTS[run]


def test_two_jobs_reproduce_the_pinned_report_and_monitor_metrics():
    config = _threshold_attack()
    assert config.chunk_count == 2
    serial_digest, serial_metrics = run_digest(config, jobs=1)
    parallel_digest, parallel_metrics = run_digest(config, jobs=2)
    assert serial_metrics["monitor.rounds"] == config.groups * config.rounds
    assert parallel_metrics == serial_metrics
    assert parallel_digest == serial_digest == DIGESTS["threshold-attack"]
