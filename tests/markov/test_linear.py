"""Tests for repro.markov.linear."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SolverError
from repro.markov import linear
from repro.markov.linear import (
    check_stochastic,
    choose_factorization,
    fill_estimate,
    normalize_distribution,
    solve_stationary,
    solve_stationary_stochastic,
    stationary_solve,
)
from repro.markov.sparse import check_sparse_generator


def birth_death(n, up, down, *, first_up=None):
    """Generator of a birth-death chain with constant rates ``up``/``down``
    (state 0 may have its own ``first_up``) and its exact π."""
    generator = np.zeros((n, n))
    ups = np.full(n - 1, float(up))
    if first_up is not None:
        ups[0] = first_up
    generator[np.arange(n - 1), np.arange(1, n)] = ups
    generator[np.arange(1, n), np.arange(n - 1)] = down
    np.fill_diagonal(generator, -generator.sum(axis=1))
    weights = np.concatenate([[1.0], np.cumprod(ups / down)])
    return generator, weights / weights.sum()


class TestNormalizeDistribution:
    def test_normalizes(self):
        result = normalize_distribution(np.array([1.0, 3.0]), what="x")
        assert np.allclose(result, [0.25, 0.75])

    def test_clips_tiny_negatives(self):
        result = normalize_distribution(np.array([1.0, -1e-12]), what="x")
        assert result[1] == 0.0

    def test_rejects_large_negatives(self):
        with pytest.raises(SolverError, match="negative"):
            normalize_distribution(np.array([1.0, -0.5]), what="x")

    def test_keeps_tiny_positive_entries(self):
        result = normalize_distribution(np.array([1.0, 1e-30]), what="x")
        assert result[1] == 1e-30

    def test_rejects_zero_sum(self):
        with pytest.raises(SolverError):
            normalize_distribution(np.array([0.0, 0.0]), what="x")


class TestSolveStationary:
    def test_two_state_balance(self):
        # up/down with fail 1, repair 4  ->  pi = (0.8, 0.2)
        generator = np.array([[-1.0, 1.0], [4.0, -4.0]])
        pi = solve_stationary(generator, what="test")
        assert np.allclose(pi, [0.8, 0.2])

    def test_rejects_rectangular(self):
        with pytest.raises(SolverError):
            solve_stationary(np.zeros((2, 3)), what="test")

    def test_reducible_chain_rejected(self):
        # two disconnected recurrent classes -> stationary not unique
        generator = np.array(
            [
                [-1.0, 1.0, 0.0, 0.0],
                [1.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, -2.0, 2.0],
                [0.0, 0.0, 2.0, -2.0],
            ]
        )
        with pytest.raises(SolverError, match="reducible"):
            solve_stationary(generator, what="test")

    def test_broken_down_solve_raises_solver_error(self):
        generator = birth_death(4, 1.0, 2.0)[0]
        generator[0, 2] = generator[0, 0] = np.nan
        with pytest.raises(SolverError, match="residual"):
            solve_stationary(generator, what="test")

    def test_stochastic_stationary(self):
        matrix = np.array([[0.5, 0.5], [0.25, 0.75]])
        pi = solve_stationary_stochastic(matrix, what="test")
        assert np.allclose(pi, pi @ matrix)
        assert np.isclose(pi.sum(), 1.0)


class TestFactorization:
    def test_fill_estimate_of_a_tridiagonal_chain(self):
        generator = sp.csr_array(birth_death(50, 1.0, 2.0)[0])
        fill, order = fill_estimate(generator)
        assert fill == 2 * 49
        assert sorted(order.tolist()) == list(range(50))

    def test_fill_estimate_of_a_single_absorbing_state(self):
        fill, order = fill_estimate(sp.csr_array(np.zeros((1, 1))))
        assert (fill, order.tolist()) == (0, [0])

    def test_choice_thresholds(self):
        assert choose_factorization(10, 18) == "lapack"
        assert choose_factorization(200, 40_000) == "lapack"
        assert choose_factorization(201, 40_401) == "superlu"
        assert choose_factorization(1000, 5_000) == "superlu"
        assert choose_factorization(10_000, linear.FILL_BUDGET) == "superlu"
        assert choose_factorization(10_000, linear.FILL_BUDGET + 1) == "ilu-gmres"

    @pytest.mark.parametrize(
        ("n", "factorization"), [(60, "lapack"), (600, "superlu")]
    )
    def test_direct_solves_are_exact_entry_by_entry(self, n, factorization):
        generator, expected = birth_death(n, 1.0, 2.0)  # pi spans 2**-n
        pi, info = stationary_solve(sp.csr_array(generator), what="test")
        assert info.factorization == factorization
        assert (info.solver, info.iterations) == ("direct", 0)
        np.testing.assert_allclose(pi, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        ("n", "factorization"), [(60, "lapack"), (600, "superlu")]
    )
    def test_light_anchor_is_replaced(self, n, factorization):
        # state 0 has the smallest exit rate but carries mass ~2**-n; the
        # LU anchored there cancels a pivot to zero
        generator, expected = birth_death(n, 2.0, 1.0, first_up=0.5)
        assert np.argmax(np.diag(generator)) == 0
        pi, info = stationary_solve(sp.csr_array(generator), what="test")
        assert (info.solver, info.factorization) == ("direct", factorization)
        np.testing.assert_allclose(pi, expected, rtol=1e-12, atol=0.0)

    def test_fill_above_the_budget_uses_ilu_gmres(self, monkeypatch):
        monkeypatch.setattr(linear, "FILL_BUDGET", 100)
        generator, expected = birth_death(600, 1.0, 1.1)
        pi, info = stationary_solve(sp.csr_array(generator), what="test")
        assert (info.factorization, info.fallback) == ("ilu-gmres", False)
        assert info.iterations > 0
        np.testing.assert_allclose(pi, expected, rtol=1e-8, atol=0.0)

    def test_failed_lu_falls_back_to_ilu_gmres(self, monkeypatch):
        monkeypatch.setattr(
            linear, "_superlu_solve", lambda q, *_: np.full(q.shape[0], np.nan)
        )
        generator, expected = birth_death(600, 1.0, 1.1)
        pi, info = stationary_solve(sp.csr_array(generator), what="test")
        assert (info.factorization, info.fallback) == ("ilu-gmres", True)
        np.testing.assert_allclose(pi, expected, rtol=1e-8, atol=0.0)


class TestCheckGenerator:
    """The generator check every CTMC runs (on its CSR form)."""

    def test_accepts_valid(self):
        check_sparse_generator(sp.csr_array([[-1.0, 1.0], [2.0, -2.0]]), what="q")

    def test_rejects_negative_offdiagonal(self):
        with pytest.raises(SolverError, match="off-diagonal"):
            check_sparse_generator(sp.csr_array([[0.5, -0.5], [0.0, 0.0]]), what="q")

    def test_rejects_nonzero_rowsums(self):
        with pytest.raises(SolverError, match="sum to zero"):
            check_sparse_generator(sp.csr_array([[-1.0, 2.0], [0.0, 0.0]]), what="q")


class TestCheckStochastic:
    def test_accepts_stochastic(self):
        check_stochastic(np.array([[0.3, 0.7], [1.0, 0.0]]), what="p")

    def test_rejects_bad_rowsum(self):
        with pytest.raises(SolverError):
            check_stochastic(np.array([[0.3, 0.3], [1.0, 0.0]]), what="p")

    def test_substochastic_mode(self):
        check_stochastic(
            np.array([[0.3, 0.3], [0.0, 0.0]]), what="p", substochastic=True
        )

    def test_rejects_negative(self):
        with pytest.raises(SolverError, match="negative"):
            check_stochastic(np.array([[-0.1, 1.1], [1.0, 0.0]]), what="p")
