"""Tests for the PerceptionSystem façade."""

import numpy as np
import pytest

from repro.errors import StateSpaceError, UnsupportedModelError
from repro.perception import PerceptionParameters, PerceptionSystem


class TestFacade:
    def test_expected_reliability_matches_evaluate(self, four_version_parameters):
        system = PerceptionSystem(four_version_parameters)
        assert np.isclose(system.expected_reliability(), 0.8223487, atol=1e-6)

    def test_net_cached(self, four_version_parameters):
        system = PerceptionSystem(four_version_parameters)
        assert system.net is system.net

    def test_analyze_cached(self, four_version_parameters):
        system = PerceptionSystem(four_version_parameters)
        assert system.analyze() is system.analyze()

    def test_analyze_memoizes_per_state_bound(self, six_version_parameters):
        # a result computed under one max_states must not answer another
        system = PerceptionSystem(six_version_parameters)
        assert system.analyze().expected_reliability == pytest.approx(0.9430077)
        with pytest.raises(StateSpaceError):
            system.analyze(max_states=5)
        assert system.analyze() is system.analyze()

    def test_rejuvenating_system_uses_clocked_net(self, six_version_parameters):
        system = PerceptionSystem(six_version_parameters)
        assert "Trc" in system.net.transitions

    def test_simulate_agrees_with_analytic(self, four_version_parameters):
        system = PerceptionSystem(four_version_parameters)
        estimate = system.simulate(
            horizon=150000.0, warmup=2000.0, replications=6, seed=10
        )
        assert abs(estimate.mean - system.expected_reliability()) < 0.02

    def test_transient_reliability(self, four_version_parameters):
        system = PerceptionSystem(four_version_parameters)
        trajectory = system.transient_reliability([0.0, 1000.0, 100000.0])
        # fresh system is maximally reliable; decays toward steady state
        assert trajectory.rewards[0] > trajectory.rewards[-1]
        assert np.isclose(
            trajectory.rewards[-1], system.expected_reliability(), atol=1e-3
        )

    def test_transient_rejected_for_rejuvenating(self, six_version_parameters):
        system = PerceptionSystem(six_version_parameters)
        with pytest.raises(UnsupportedModelError):
            system.transient_reliability([1.0])

    def test_to_dot(self, six_version_parameters):
        dot = PerceptionSystem(six_version_parameters).to_dot()
        assert "Pmh" in dot and "Trc" in dot

    def test_simulated_transient_for_rejuvenating(self, six_version_parameters):
        """The Monte-Carlo trajectory covers the clocked system the
        analytic transient refuses."""
        system = PerceptionSystem(six_version_parameters)
        profile = system.transient_reliability_simulated(
            [0.0, 300.0, 5000.0], replications=40, seed=14
        )
        assert profile.times == (0.0, 300.0, 5000.0)
        # fresh system: all six healthy, R(6,0,0) = 0.945 exactly
        assert profile.means[0] == pytest.approx(0.945)
        assert all(0.9 < m <= 1.0 for m in profile.means)

    def test_simulated_transient_matches_analytic_for_clockless(
        self, four_version_parameters
    ):
        system = PerceptionSystem(four_version_parameters)
        times = [0.0, 1000.0, 5000.0]
        exact = system.transient_reliability(times)
        profile = system.transient_reliability_simulated(
            times, replications=150, seed=15
        )
        for analytic_value, mean, half in zip(
            exact.rewards, profile.means, profile.half_widths
        ):
            assert abs(mean - analytic_value) < max(3 * half, 0.02)
