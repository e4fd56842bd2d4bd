"""Tests for exact CTMC stationary sensitivities."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.markov.ctmc import CTMC
from repro.markov.sensitivity import (
    rate_elasticity,
    reward_derivative,
    stationary_derivative,
)


def two_state(fail=1.0, repair=4.0):
    return CTMC(np.array([[-fail, fail], [repair, -repair]]))


# dQ/d(fail): only the first row depends on the fail rate
D_FAIL = np.array([[-1.0, 1.0], [0.0, 0.0]])
D_REPAIR = np.array([[0.0, 0.0], [1.0, -1.0]])


class TestStationaryDerivative:
    def test_against_closed_form(self):
        """pi_up = r / (f + r): d pi_up / d f = -r / (f+r)^2."""
        f, r = 1.0, 4.0
        chain = two_state(f, r)
        derivative = stationary_derivative(chain, D_FAIL)
        expected_up = -r / (f + r) ** 2
        assert np.isclose(derivative[0], expected_up)
        assert np.isclose(derivative[1], -expected_up)

    def test_sums_to_zero(self):
        derivative = stationary_derivative(two_state(), D_REPAIR)
        assert np.isclose(derivative.sum(), 0.0)

    def test_matches_finite_difference(self):
        f, r, h = 1.0, 4.0, 1e-6
        exact = stationary_derivative(two_state(f, r), D_FAIL)
        pi_plus = two_state(f + h, r).stationary_distribution()
        pi_minus = two_state(f - h, r).stationary_distribution()
        numeric = (pi_plus - pi_minus) / (2 * h)
        assert np.allclose(exact, numeric, atol=1e-6)

    def test_csr_derivative_matches_dense(self):
        import scipy.sparse as sp

        dense = stationary_derivative(two_state(), D_FAIL)
        sparse = stationary_derivative(two_state(), sp.csr_array(D_FAIL))
        np.testing.assert_array_equal(dense, sparse)

    def test_shape_checked(self):
        with pytest.raises(SolverError):
            stationary_derivative(two_state(), np.zeros((3, 3)))

    def test_row_sums_checked(self):
        with pytest.raises(SolverError, match="sum to zero"):
            stationary_derivative(two_state(), np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_reducible_chain_rejected(self):
        """Two closed classes: no unique pi, so no unique derivative."""
        chain = CTMC(
            np.array(
                [
                    [-1.0, 1.0, 0.0, 0.0],
                    [4.0, -4.0, 0.0, 0.0],
                    [0.0, 0.0, -2.0, 2.0],
                    [0.0, 0.0, 3.0, -3.0],
                ]
            )
        )
        derivative = np.zeros((4, 4))
        derivative[0, :2] = D_FAIL[0]
        with pytest.raises(SolverError, match="not unique"):
            stationary_derivative(chain, derivative)

    def test_transient_state_has_zero_derivative(self):
        """A transient start state feeding the up/down pair: pi stays 0 there."""
        f, r = 1.0, 4.0
        chain = CTMC(np.array([[-2.0, 1.0, 1.0], [0.0, -f, f], [0.0, r, -r]]))
        derivative = stationary_derivative(
            chain, np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]])
        )
        assert np.allclose(derivative, [0.0, -r / (f + r) ** 2, r / (f + r) ** 2])

    def test_single_state_chain_has_zero_derivative(self):
        derivative = stationary_derivative(CTMC(np.array([[0.0]])), np.zeros((1, 1)))
        assert np.array_equal(derivative, [0.0])

    def test_absorbing_chain_has_zero_derivative(self):
        chain = CTMC(np.array([[-1.0, 1.0], [0.0, 0.0]]))
        derivative = stationary_derivative(chain, D_FAIL)
        assert np.allclose(derivative, [0.0, 0.0])


class TestRewardDerivative:
    def test_availability_sensitivity(self):
        chain = two_state(1.0, 4.0)
        value = reward_derivative(chain, np.array([1.0, 0.0]), D_FAIL)
        assert np.isclose(value, -4.0 / 25.0)

    def test_reward_shape_checked(self):
        with pytest.raises(SolverError):
            reward_derivative(two_state(), np.array([1.0]), D_FAIL)


class TestRateElasticity:
    def test_value(self):
        # E = pi_up = r/(f+r) = 0.8; dE/df = -0.16; elasticity = f/E * dE/df
        chain = two_state(1.0, 4.0)
        value = rate_elasticity(chain, np.array([1.0, 0.0]), D_FAIL, rate=1.0)
        assert np.isclose(value, 1.0 / 0.8 * (-4.0 / 25.0))

    def test_rejects_non_positive_rate(self):
        with pytest.raises(SolverError):
            rate_elasticity(two_state(), np.array([1.0, 0.0]), D_FAIL, rate=0.0)
