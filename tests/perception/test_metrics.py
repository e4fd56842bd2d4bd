"""Tests for the domain dependability metrics."""

import numpy as np
import pytest

from repro.errors import UnsupportedModelError
from repro.perception.metrics import (
    mean_time_to_quorum_loss,
    quorum_loss_probability,
)
from repro.perception.parameters import PerceptionParameters


class TestMeanTimeToQuorumLoss:
    def test_positive_and_large(self, four_version_parameters):
        """With 3 s repairs, double outages are rare: MTTQL >> mttc."""
        value = mean_time_to_quorum_loss(four_version_parameters)
        assert value > 10 * four_version_parameters.mttc

    def test_faster_repair_extends_time(self, four_version_parameters):
        slow = four_version_parameters.replace(mttr=30.0)
        fast = four_version_parameters.replace(mttr=0.3)
        assert mean_time_to_quorum_loss(fast) > mean_time_to_quorum_loss(slow)

    def test_rejuvenating_configuration_rejected(self, six_version_parameters):
        with pytest.raises(UnsupportedModelError):
            mean_time_to_quorum_loss(six_version_parameters)


class TestQuorumLossProbability:
    def test_zero_horizon(self, four_version_parameters):
        assert quorum_loss_probability(four_version_parameters, 0.0) == 0.0

    def test_monotone_in_mission_time(self, four_version_parameters):
        values = [
            quorum_loss_probability(four_version_parameters, t)
            for t in (3600.0, 7200.0, 36000.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_short_mission_low_risk(self, four_version_parameters):
        assert quorum_loss_probability(four_version_parameters, 3600.0) < 0.01

    def test_consistent_with_mean_time(self, four_version_parameters):
        """For an (approximately) exponential hitting time,
        P(hit by t) ~ 1 - exp(-t / MTT)."""
        mean_time = mean_time_to_quorum_loss(four_version_parameters)
        horizon = mean_time / 10.0
        probability = quorum_loss_probability(four_version_parameters, horizon)
        approx = 1 - np.exp(-horizon / mean_time)
        assert probability == pytest.approx(approx, rel=0.15)


def _full_solve_elasticity(parameters, name, step=1e-4):
    """Central difference of two full Eq. 1 solves (the reference)."""
    from repro.perception.evaluation import evaluate

    value = getattr(parameters, name)
    upper = evaluate(parameters.replace(**{name: value * (1 + step)}))
    lower = evaluate(parameters.replace(**{name: value * (1 - step)}))
    base = evaluate(parameters).expected_reliability
    return (
        (upper.expected_reliability - lower.expected_reliability) / (2 * step) / base
    )


def _rate_elasticities(parameters):
    from repro.analysis.sensitivity import elasticities

    names = ("mttc", "mttf", "mttr")
    return {e.parameter: e.elasticity for e in elasticities(parameters, names)}


class TestExactElasticities:
    def test_matches_finite_differences(self, four_version_parameters):
        exact = _rate_elasticities(four_version_parameters)
        for name in ("mttc", "mttf", "mttr"):
            numeric = _full_solve_elasticity(four_version_parameters, name)
            assert exact[name] == pytest.approx(numeric, rel=1e-6)

    def test_signs(self, four_version_parameters):
        exact = _rate_elasticities(four_version_parameters)
        assert exact["mttc"] > 0  # slower compromise helps
        assert exact["mttf"] < 0  # staying compromised longer hurts (at p'=0.5)

    def test_rejuvenating_configuration_agrees(self, six_version_parameters):
        """The rejuvenating net, solved as an MRGP, agrees with full solves."""
        exact = _rate_elasticities(six_version_parameters)
        for name in ("mttc", "mttf", "mttr"):
            numeric = _full_solve_elasticity(six_version_parameters, name)
            assert exact[name] == pytest.approx(numeric, rel=1e-6)
