"""Pin the monitored trajectories to recorded numbers.

The health monitor's filter, selection and quality bookkeeping have one
implementation, driven by the batch runtime.  These regressions hold it
to recorded trajectories: every integer field of the batch monitor
report plus a digest of its final posterior/flagged/available arrays,
and the integer fields of one single-group policy run
(:func:`~repro.experiments.monitor.run_policy`) under the attack
campaign.  Any change to the float operations, their order, the
selection ranking or the flag bookkeeping moves at least one of them.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.monitor import (
    ATTACK_BURST,
    ATTACK_INTENSITY,
    ATTACK_PERIOD,
    run_policy,
)
from repro.obs.metrics import registry_override
from repro.simulation import (
    AttackCampaign,
    BatchConfig,
    BatchMonitorConfig,
    simulate_batch,
)

REPORT_INTEGERS = (
    "compromises",
    "detected",
    "censored",
    "false_alarms",
    "flags",
    "triggers",
    "false_triggers",
    "rounds",
    "errors",
)

SUMMARY_INTEGERS = (
    "compromises",
    "detected",
    "censored",
    "false_alarms",
    "triggers",
    "false_triggers",
    "rounds",
    "errors",
)

#: Recorded batch trajectories: mode -> (integer fields, sha256 digest).
BATCH_TRAJECTORIES = {
    "observe": (
        dict(
            compromises=60, detected=60, censored=0, false_alarms=30,
            flags=90, triggers=144, false_triggers=127, rounds=43200,
            errors=1835,
        ),
        "08a2e8f07b3c9d1765bdcd36af7f369a0010baefad3f3aa4f5304b5aa4226bc2",
    ),
    "targeted": (
        dict(
            compromises=60, detected=58, censored=2, false_alarms=31,
            flags=89, triggers=143, false_triggers=94, rounds=43200,
            errors=1803,
        ),
        "ded294f2cc36651ef5ab47ec882d210adbe5834881a6545d87d1f4c914fb4db1",
    ),
    "threshold": (
        dict(
            compromises=183, detected=182, censored=1, false_alarms=152,
            flags=334, triggers=129, false_triggers=19, rounds=43200,
            errors=3452,
        ),
        "922d237e24dcd590418c9bbda2894c7d49b47940007b8357ee3e402ebb1484cc",
    ),
}

#: Recorded ``run_policy(six, "threshold", duration=2000, seed=2023)``
#: under the attack campaign, on the single-group batch.
THRESHOLD_ATTACK_SUMMARY = dict(
    compromises=7, detected=7, censored=0, false_alarms=4, triggers=3,
    false_triggers=0, rounds=2000, errors=312,
)


def _batch_config(parameters, mode: str) -> BatchConfig:
    config = BatchConfig(
        parameters=parameters,
        groups=48,
        rounds=900,
        request_period=2.0,
        seed=41,
        chunk_size=16,
        monitor=BatchMonitorConfig(mode=mode),
    )
    if mode != "threshold":
        return config
    campaign = AttackCampaign.periodic(
        period=600.0, burst_duration=200.0, intensity=8.0, horizon=1800.0
    )
    return replace(config, campaign=campaign).with_stationary_init()


def _digest(report) -> str:
    digest = hashlib.sha256()
    for array, dtype in (
        (report.posterior, np.float64),
        (report.flagged, bool),
        (report.available, bool),
    ):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("mode", sorted(BATCH_TRAJECTORIES))
def test_batch_monitor_trajectory(six_version_parameters, mode):
    with registry_override():
        run = simulate_batch(_batch_config(six_version_parameters, mode))
    report = run.monitor
    integers = {name: getattr(report, name) for name in REPORT_INTEGERS}
    expected_integers, expected_digest = BATCH_TRAJECTORIES[mode]
    assert integers == expected_integers
    assert _digest(report) == expected_digest


def test_threshold_policy_under_attack(six_version_parameters):
    campaign = AttackCampaign.periodic(
        period=ATTACK_PERIOD,
        burst_duration=ATTACK_BURST,
        intensity=ATTACK_INTENSITY,
        horizon=2000.0,
    )
    with registry_override():
        run = run_policy(
            six_version_parameters,
            "threshold",
            duration=2000.0,
            seed=2023,
            campaign=campaign,
            scenario="attack",
        )
    integers = {name: getattr(run.summary, name) for name in SUMMARY_INTEGERS}
    assert integers == THRESHOLD_ATTACK_SUMMARY
