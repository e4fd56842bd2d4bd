"""Tests for the rejuvenation clock (phase C of the batch round).

Fig. 2(b): every ``rejuvenation_interval`` seconds the clock arms ``r``
selections (guard g1: only while no rejuvenation is running); pending
selections start under guard g2 (failed plus rejuvenating modules never
exceed ``r``) on uniformly chosen operational modules, and a batch of
``b`` rejuvenations completes at rate ``1 / (b · time_per_module)``.
"""

import math

import numpy as np

from repro.obs.metrics import registry_override
from repro.perception.parameters import PerceptionParameters
from repro.simulation import BatchConfig, simulate_batch
from repro.simulation.batch.schedule import completion_probabilities

#: Fault-free six-version system: only the clock moves modules.
QUIET = dict(mttc=1e12, mttf=1e12)


def run(params, *, rounds, groups=64, census=None, seed=0):
    config = BatchConfig(
        parameters=params,
        groups=groups,
        rounds=rounds,
        request_period=1.0,
        seed=seed,
        initial_census=((census, 1.0),) if census is not None else None,
        record_rejuvenations=True,
    )
    with registry_override():
        return simulate_batch(config)


def start_rounds(report):
    return sorted({k for k, _, _ in report.rejuvenations})


def starts_per_group(report):
    return report.transitions["rejuvenation-start"]


class TestClock:
    def test_next_tick_after_zero(self):
        report = run(PerceptionParameters.six_version_defaults(**QUIET), rounds=700)
        assert start_rounds(report) == [599]  # the request at t = 600 s

    def test_next_tick_strictly_after(self):
        report = run(PerceptionParameters.six_version_defaults(**QUIET), rounds=1300)
        assert start_rounds(report) == [599, 1199]

    def test_next_tick_mid_interval(self):
        report = run(PerceptionParameters.six_version_defaults(**QUIET), rounds=900)
        assert start_rounds(report) == [599]


class TestOnTick:
    def test_selects_one_module(self):
        report = run(PerceptionParameters.six_version_defaults(**QUIET), rounds=700)
        assert (starts_per_group(report) == 1).all()

    def test_blocked_by_ongoing_rejuvenation(self):
        """Guard g1: a rejuvenation still running at the next tick
        blocks the new selection."""
        params = PerceptionParameters.six_version_defaults(
            rejuvenation_time_per_module=1e12, **QUIET
        )
        report = run(params, rounds=1300)
        assert (starts_per_group(report) == 1).all()

    def test_blocked_by_failed_module_then_deferred(self):
        """Guard g2: with r = 1 a failed module uses the whole budget,
        so the tick's selection waits for the repair."""
        params = PerceptionParameters.six_version_defaults(mttr=1000.0, **QUIET)
        report = run(params, rounds=1100, groups=256, census=(5, 0, 1))
        first = {}
        for k, group, _ in report.rejuvenations:
            first.setdefault(group, k)
        on_tick = sum(1 for k in first.values() if k == 599)
        deferred = sum(1 for k in first.values() if k > 599)
        assert 0 < on_tick < 256
        assert deferred > 0
        # a group whose module is still failed has not started at all
        assert len(first) < 256

    def test_r2_selects_two(self):
        params = PerceptionParameters(
            n_modules=9, f=1, r=2, rejuvenation=True, **QUIET
        )
        report = run(params, rounds=700)
        assert (starts_per_group(report) == 2).all()

    def test_selection_uniform_over_operational(self):
        """Compromised modules are picked proportionally to their count."""
        params = PerceptionParameters.six_version_defaults(**QUIET)
        # initial layout: modules 0-3 healthy, 4-5 compromised
        report = run(params, rounds=600, groups=2048, census=(4, 2, 0))
        victims = np.array([module for _, _, module in report.rejuvenations])
        assert len(victims) == 2048
        # expected fraction 2/6
        assert abs(np.mean(victims >= 4) - 1 / 3) < 0.04


class TestCompletionDelay:
    def test_mean_scales_with_batch(self):
        params = PerceptionParameters.six_version_defaults()
        dt = 0.5
        probabilities = completion_probabilities(params, dt)
        # exponential mean of a batch of b: b * time_per_module (3 s)
        for batch in (1, 2, 3):
            mean = -dt / math.log1p(-probabilities[batch])
            assert math.isclose(mean, 3.0 * batch, rel_tol=1e-12)
