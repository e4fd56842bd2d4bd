"""Tests for the Bayesian health estimator."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.monitor.estimator import (
    HealthEstimator,
    deviation_likelihoods,
    healthy_deviation_probability,
)
from repro.perception.parameters import PerceptionParameters


@pytest.fixture
def parameters():
    return PerceptionParameters.six_version_defaults()


def observe(estimator, deviated, now, module=0, operational=None):
    """One round with every module (or ``operational``) voting;
    ``module`` deviates or not.  Returns its posterior."""
    n = estimator.posterior.shape[1]
    up = np.ones((1, n), dtype=bool) if operational is None else operational
    flags = np.zeros((1, n), dtype=bool)
    flags[0, module] = deviated
    estimator.sync(now, up)
    estimator.update(flags & up)
    return estimator.posterior[0, module]


def without(module, n):
    operational = np.ones((1, n), dtype=bool)
    operational[0, module] = False
    return operational


class TestPriorDynamics:
    def test_rates_come_from_the_analytic_model(self, parameters):
        """The filter's dynamics are the DSPN's Tc/Tf rates, untouched."""
        estimator = HealthEstimator(parameters)
        assert estimator.failure_rate == parameters.lambda_f
        assert estimator.compromise_rate == pytest.approx(
            parameters.lambda_c / parameters.n_modules
        )

    def test_belief_drifts_towards_compromised_without_votes(self, parameters):
        estimator = HealthEstimator(parameters)
        estimator.predict(10.0)
        early = estimator.posterior[0, 0]
        estimator.predict(5000.0)
        late = estimator.posterior[0, 0]
        assert 0.0 < early < late < 1.0

    def test_time_running_backwards_rejected(self, parameters):
        estimator = HealthEstimator(parameters)
        observe(estimator, False, now=10.0)
        with pytest.raises(SimulationError):
            observe(estimator, False, now=5.0)


class TestLikelihood:
    def test_healthy_deviation_probability_below_p_prime(self, parameters):
        assert (
            healthy_deviation_probability(parameters) < parameters.p_prime
        )

    def test_uninformative_likelihoods_rejected(self, parameters):
        # p' at the healthy modules' own deviation rate
        blind = parameters.replace(
            p_prime=healthy_deviation_probability(parameters)
        )
        with pytest.raises(SimulationError):
            deviation_likelihoods(blind)
        with pytest.raises(SimulationError):
            HealthEstimator(blind)

    def test_deviations_raise_suspicion(self, parameters):
        estimator = HealthEstimator(parameters)
        for i in range(20):
            observe(estimator, True, now=float(i + 1))
        assert estimator.posterior[0, 0] > 0.99

    def test_agreement_clears_suspicion(self, parameters):
        estimator = HealthEstimator(parameters)
        for i in range(5):
            suspicious = observe(estimator, True, now=float(i + 1))
        for i in range(50):
            observe(estimator, False, now=float(i + 6))
        assert estimator.posterior[0, 0] < suspicious

    def test_compromised_behaviour_detected_quickly(self, parameters):
        """A module deviating at rate p' crosses 0.9 within ~20 rounds."""
        estimator = HealthEstimator(parameters)
        crossed_at = None
        pattern = [True, False] * 15  # deviation rate 0.5 = p'
        for i, deviated in enumerate(pattern):
            p = observe(estimator, deviated, now=float(i + 1))
            if p > 0.9:
                crossed_at = i
                break
        assert crossed_at is not None and crossed_at <= 20

    def test_healthy_behaviour_stays_calm(self, parameters):
        """Isolated deviations at the healthy rate never cross 0.5."""
        estimator = HealthEstimator(parameters)
        for i in range(300):
            assert observe(estimator, i % 25 == 0, now=float(i + 1)) < 0.5


class TestAvailability:
    def test_unavailable_module_has_no_posterior(self, parameters):
        n = parameters.n_modules
        estimator = HealthEstimator(parameters)
        estimator.sync(5.0, without(0, n))
        assert not estimator.available[0, 0]
        assert np.isnan(estimator.posterior[0, 0])
        # a deviation flag cannot resurrect the belief of a silent module
        assert np.isnan(
            observe(estimator, True, now=6.0, operational=without(0, n))
        )

    def test_return_resets_belief_and_staleness(self, parameters):
        n = parameters.n_modules
        estimator = HealthEstimator(parameters)
        for i in range(10):
            observe(estimator, True, now=float(i + 1))
        estimator.sync(20.0, without(0, n))
        estimator.sync(25.0, np.ones((1, n), dtype=bool))
        assert estimator.posterior[0, 0] == 0.0
        assert estimator.last_reset[0, 0] == 25.0
        assert (estimator.last_reset[0, 1:] == 0.0).all()

    def test_suspicion_map_covers_all_modules(self, parameters):
        n = parameters.n_modules
        estimator = HealthEstimator(parameters, groups=3)
        operational = np.ones((3, n), dtype=bool)
        operational[1, 2] = False
        estimator.sync(1.0, operational)
        assert estimator.posterior.shape == (3, n)
        assert np.isnan(estimator.posterior[1, 2])
        assert np.count_nonzero(np.isnan(estimator.posterior)) == 1

    def test_reset_restores_fresh_state(self, parameters):
        """A new deployment: every module healthy and up at time zero."""
        estimator = HealthEstimator(parameters, groups=2)
        assert estimator.clock == 0.0
        assert (estimator.posterior == 0.0).all()
        assert estimator.available.all()
        assert (estimator.last_reset == 0.0).all()
