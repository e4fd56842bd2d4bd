"""Exact stationary sensitivities of small CTMCs, from the one adjoint gradient.

:func:`repro.dspn.gradient.reward_gradient` differentiates ``π · r``
with respect to every edge rate of a solved net; with an indicator
reward it gives ``dπ_i/dθ``.  The two-state up/down chain has the
closed forms ``π_up = r / (f + r)`` and ``dπ_up/df = −r / (f + r)²``.
"""

import numpy as np
import pytest

from repro.dspn import solve_steady_state
from repro.dspn.gradient import reward_gradient
from repro.errors import SolverError
from repro.markov.linear import solve_poisson
from repro.petri import NetBuilder


def solve(builder, method="auto"):
    return solve_steady_state(builder.build(), method=method, use_cache=False)


def two_state(fail=1.0, repair=4.0, method="auto"):
    builder = NetBuilder("two-state")
    builder.place("Up", tokens=1).place("Down")
    builder.exponential("fail", rate=fail, inputs={"Up": 1}, outputs={"Down": 1})
    builder.exponential("repair", rate=repair, inputs={"Down": 1}, outputs={"Up": 1})
    return solve(builder, method)


def indicator(solution, place):
    return np.array([float(marking[place]) for marking in solution.markings])


def derivative(solution, rewards, transition):
    """``dE/dθ`` for the base rate θ of ``transition`` (single server)."""
    gradient = reward_gradient(solution, rewards)
    edges = np.asarray(solution.graph.structure.edge_transition) == transition
    return float(gradient[edges].sum())


class TestStationaryDerivative:
    def test_against_closed_form(self):
        """pi_up = r / (f + r): d pi_up / d f = -r / (f+r)^2."""
        f, r = 1.0, 4.0
        solution = two_state(f, r)
        expected_up = -r / (f + r) ** 2
        assert np.isclose(derivative(solution, indicator(solution, "Up"), "fail"), expected_up)
        assert np.isclose(
            derivative(solution, indicator(solution, "Down"), "fail"), -expected_up
        )

    def test_sums_to_zero(self):
        """A constant reward has zero derivative: dπ sums to zero."""
        solution = two_state()
        gradient = reward_gradient(solution, np.ones(2))
        np.testing.assert_allclose(gradient, 0.0, atol=1e-15)

    def test_matches_finite_difference(self):
        f, r, h = 1.0, 4.0, 1e-6
        solution = two_state(f, r)
        exact = derivative(solution, indicator(solution, "Up"), "fail")
        plus, minus = two_state(f + h, r), two_state(f - h, r)
        numeric = (
            plus.pi @ indicator(plus, "Up") - minus.pi @ indicator(minus, "Up")
        ) / (2 * h)
        assert exact == pytest.approx(numeric, abs=1e-6)

    def test_csr_derivative_matches_dense(self):
        """The CSR route and the dense MRGP kernels give one gradient."""
        csr, dense = two_state(), two_state(method="mrgp")
        assert (csr.method, dense.method) == ("sparse", "mrgp")
        np.testing.assert_allclose(
            reward_gradient(csr, indicator(csr, "Up")),
            reward_gradient(dense, indicator(dense, "Up")),
            rtol=1e-13,
            atol=1e-16,
        )

    def test_shape_checked(self):
        """One derivative per timed edge of the graph."""
        solution = two_state()
        gradient = reward_gradient(solution, indicator(solution, "Up"))
        assert gradient.shape == solution.graph.values.shape == (2,)

    def test_reducible_chain_rejected(self):
        """Two closed classes: no unique pi, so no unique Poisson solution."""
        generator = np.array(
            [
                [-1.0, 1.0, 0.0, 0.0],
                [4.0, -4.0, 0.0, 0.0],
                [0.0, 0.0, -2.0, 2.0],
                [0.0, 0.0, 3.0, -3.0],
            ]
        )
        with pytest.raises(SolverError, match="not unique"):
            solve_poisson(generator, np.zeros(4), np.ones(4), what="reducible")

    def test_transient_state_has_zero_derivative(self):
        """A transient start state feeding the up/down pair: pi stays 0 there."""
        f, r = 1.0, 4.0
        builder = NetBuilder("transient-start")
        builder.place("Start", tokens=1).place("Up").place("Down")
        builder.exponential("start_up", rate=1.0, inputs={"Start": 1}, outputs={"Up": 1})
        builder.exponential(
            "start_down", rate=1.0, inputs={"Start": 1}, outputs={"Down": 1}
        )
        builder.exponential("fail", rate=f, inputs={"Up": 1}, outputs={"Down": 1})
        builder.exponential("repair", rate=r, inputs={"Down": 1}, outputs={"Up": 1})
        solution = solve(builder)
        up = indicator(solution, "Up")
        assert derivative(solution, up, "start_up") == 0.0
        assert derivative(solution, up, "start_down") == 0.0
        assert np.isclose(derivative(solution, up, "fail"), -r / (f + r) ** 2)

    def test_single_state_chain_has_zero_derivative(self):
        builder = NetBuilder("single")
        builder.place("P", tokens=1)
        builder.exponential("spin", rate=1.0, inputs={"P": 1}, outputs={"P": 1})
        solution = solve(builder)
        assert np.array_equal(reward_gradient(solution, np.ones(1)), [0.0])

    def test_absorbing_chain_has_zero_derivative(self):
        builder = NetBuilder("absorbing")
        builder.place("Up", tokens=1).place("Down")
        builder.exponential("fail", rate=1.0, inputs={"Up": 1}, outputs={"Down": 1})
        solution = solve(builder)
        gradient = reward_gradient(solution, indicator(solution, "Up"))
        assert np.allclose(gradient, [0.0])


class TestRewardDerivative:
    def test_availability_sensitivity(self):
        solution = two_state(1.0, 4.0)
        value = derivative(solution, indicator(solution, "Up"), "fail")
        assert np.isclose(value, -4.0 / 25.0)

    def test_reward_shape_checked(self):
        with pytest.raises(SolverError):
            reward_gradient(two_state(), np.array([1.0]))


class TestRateElasticity:
    def test_value(self):
        # E = pi_up = r/(f+r) = 0.8; dE/df = -0.16; elasticity = f/E * dE/df
        solution = two_state(1.0, 4.0)
        up = indicator(solution, "Up")
        value = derivative(solution, up, "fail") * 1.0 / (solution.pi @ up)
        assert np.isclose(value, 1.0 / 0.8 * (-4.0 / 25.0))
