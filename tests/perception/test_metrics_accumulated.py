"""Tests for accumulated rewards and expected misperception counts."""

import numpy as np
import pytest

from repro.errors import UnsupportedModelError
from repro.markov.ctmc import CTMC
from repro.perception.metrics import expected_misperceptions
from repro.perception.parameters import PerceptionParameters


class TestAccumulatedReward:
    def test_constant_reward_accumulates_linearly(self):
        chain = CTMC(np.array([[-1.0, 1.0], [4.0, -4.0]]))
        value = chain.accumulated_reward([1.0, 0.0], [1.0, 1.0], 5.0)
        assert np.isclose(value, 5.0)

    def test_matches_quadrature_of_transient_reward(self):
        chain = CTMC(np.array([[-1.0, 1.0], [4.0, -4.0]]))
        rewards = np.array([1.0, 0.0])
        t = 2.0
        steps = 4000
        dt = t / steps
        quad = sum(
            chain.transient_reward([1.0, 0.0], rewards, (k + 0.5) * dt) * dt
            for k in range(steps)
        )
        exact = chain.accumulated_reward([1.0, 0.0], rewards, t)
        assert np.isclose(exact, quad, rtol=1e-5)

    @pytest.mark.parametrize("t", [0.01, 0.5, 3.0, 1.0e6])
    def test_matches_closed_form(self, t):
        """From ``down``, π_up(t) = 0.8 (1 − e^{−5t}): the time spent up is
        0.8 t − 0.16 (1 − e^{−5t}).  At t = 1e6 (4e6 Poisson terms) the
        walk must stop once mixed and still hold 1e-11."""
        chain = CTMC(np.array([[-1.0, 1.0], [4.0, -4.0]]))
        value = chain.accumulated_reward([0.0, 1.0], [1.0, 0.0], t)
        exact = 0.8 * t - 0.16 * (1.0 - np.exp(-5.0 * t))
        assert value == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("t", [-1.0, float("inf"), float("nan")])
    def test_bad_horizon_rejected(self, t):
        from repro.errors import SolverError

        chain = CTMC(np.array([[-1.0, 1.0], [4.0, -4.0]]))
        with pytest.raises(SolverError, match="finite and >= 0"):
            chain.accumulated_reward([1.0, 0.0], [1.0, 0.0], t)

    def test_long_horizon_approaches_stationary_rate(self):
        chain = CTMC(np.array([[-1.0, 1.0], [4.0, -4.0]]))
        rewards = np.array([1.0, 0.0])
        t = 1000.0
        value = chain.accumulated_reward([0.0, 1.0], rewards, t)
        assert np.isclose(value / t, 0.8, atol=1e-3)


class TestExpectedMisperceptions:
    def test_zero_mission_time(self, four_version_parameters):
        assert expected_misperceptions(four_version_parameters, 0.0, 10.0) == 0.0

    def test_grows_with_mission_time(self, four_version_parameters):
        short = expected_misperceptions(four_version_parameters, 3600.0, 10.0)
        long = expected_misperceptions(four_version_parameters, 7200.0, 10.0)
        assert 0.0 < short < long

    def test_superlinear_early_growth(self, four_version_parameters):
        """A fresh system degrades over the mission, so the second hour
        contributes more errors than the first."""
        first = expected_misperceptions(four_version_parameters, 3600.0, 10.0)
        both = expected_misperceptions(four_version_parameters, 7200.0, 10.0)
        assert both - first > first

    def test_scales_with_request_rate(self, four_version_parameters):
        slow = expected_misperceptions(four_version_parameters, 3600.0, 1.0)
        fast = expected_misperceptions(four_version_parameters, 3600.0, 10.0)
        assert np.isclose(fast, 10.0 * slow)

    def test_long_mission_matches_steady_state_rate(self, four_version_parameters):
        from repro.perception.evaluation import evaluate

        steady = evaluate(four_version_parameters).expected_reliability
        mission = 3.0e6
        errors = expected_misperceptions(four_version_parameters, mission, 1.0)
        assert np.isclose(errors / mission, 1.0 - steady, rtol=0.02)

    def test_rejuvenating_rejected(self, six_version_parameters):
        with pytest.raises(UnsupportedModelError):
            expected_misperceptions(six_version_parameters, 3600.0, 10.0)

    def test_invalid_rate_rejected(self, four_version_parameters):
        with pytest.raises(UnsupportedModelError):
            expected_misperceptions(four_version_parameters, 3600.0, 0.0)
