"""Tests for the fault channels (phase B of the batch round).

Each of Tc, Tf and Tr is one shared channel per replica group (the
net's single-server semantics): per round it fires with the step
probability of its rate, independent of how many modules are eligible,
and takes one uniformly chosen eligible victim.
"""

import math

import pytest

from repro.obs.metrics import registry_override
from repro.perception.parameters import PerceptionParameters
from repro.simulation import BatchConfig, simulate_batch
from repro.simulation.batch.schedule import channel_probabilities
from repro.simulation.modules import MLModule

GROUPS = 4096


def parameters(**overrides):
    return PerceptionParameters.four_version_defaults(**overrides)


def run(params, census=None, **options):
    base = dict(
        parameters=params,
        groups=GROUPS,
        rounds=1,
        request_period=1.0,
        seed=0,
        initial_census=((census, 1.0),) if census is not None else None,
    )
    base.update(options)
    with registry_override():
        return simulate_batch(BatchConfig(**base))


def fired(report):
    return {kind: int(count.sum()) for kind, count in report.transitions.items()}


class TestRates:
    def test_channel_semantics_flat(self):
        """The compromise channel fires at λc per group, not N·λc."""
        params = parameters()
        probabilities = channel_probabilities(params, 1.0)
        assert probabilities == (
            -math.expm1(-params.lambda_c),
            -math.expm1(-params.lambda_f),
            -math.expm1(-params.mu),
        )
        report = run(params, rounds=50)
        expected = GROUPS * 50 * params.lambda_c  # ~134; N·λc gives ~538
        assert abs(fired(report)["compromise"] - expected) < 5 * math.sqrt(
            expected
        )

    def test_no_eligible_modules_zero_rate(self):
        """Tf and Tr need a compromised / failed victim: an all-healthy
        pool that never gets compromised never fails or repairs."""
        report = run(parameters(mttc=1e12), rounds=200)
        counts = fired(report)
        assert counts["compromise"] == counts["fail"] == counts["repair"] == 0


class TestNextEvent:
    def test_returns_none_when_nothing_possible(self):
        """All modules failed and repair switched off: no channel has an
        eligible victim or a rate, so the census never moves."""
        report = run(parameters(mttr=1e12), census=(0, 0, 4), rounds=20)
        assert sum(fired(report).values()) == 0
        assert report.census[0, 0] == report.requests

    def test_event_kinds_distributed_by_rate(self):
        params = parameters(mttc=1.0, mttf=1.0, mttr=1.0 / 98.0)
        report = run(params, census=(2, 1, 1), request_period=0.01)
        counts = fired(report)
        assert counts["repair"] > 0.8 * sum(counts.values())

    def test_delays_are_exponential_scale(self):
        """Per round each channel fires with 1 - exp(-rate·dt)."""
        params = parameters(mttc=0.1, mttf=0.1, mttr=0.1)
        report = run(params, census=(2, 1, 1), request_period=0.01)
        expected = GROUPS * -math.expm1(-10.0 * 0.01)
        for kind in ("compromise", "fail", "repair"):
            assert fired(report)[kind] == pytest.approx(expected, rel=0.15)


class TestApply:
    def test_apply_compromise(self):
        """A certain firing compromises exactly one healthy victim."""
        report = run(parameters(mttc=1e-9, mttf=1e12), rounds=1)
        assert report.census[3, 1] == GROUPS

    def test_apply_repair(self):
        report = run(
            parameters(mttc=1e12, mttr=1e-9), census=(3, 0, 1), rounds=1
        )
        assert fired(report)["repair"] == GROUPS
        # the request votes after the round's channels
        assert report.census[4, 0] == GROUPS

    def test_apply_without_eligible_raises(self):
        """The module state machine refuses a transition from the wrong
        state (the reference interpreter applies channels through it)."""
        with pytest.raises(ValueError, match="expected failed"):
            MLModule(0).repair()
