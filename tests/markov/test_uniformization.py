"""Tests for uniformization and matrix-exponential integrals."""

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from scipy.linalg import expm

from repro.errors import SolverError
from repro.markov.sparse import transient_distribution_sparse
from repro.markov.uniformization import expm_and_integral

GENERATOR = np.array([[-1.0, 1.0], [4.0, -4.0]])


def csr_transient(generator, initial, time):
    """The CSR transient route on a dense test generator."""
    return transient_distribution_sparse(sp.csr_array(generator), initial, time)


class TestTransientDistribution:
    def test_matches_expm(self):
        initial = np.array([1.0, 0.0])
        for t in (0.1, 1.0, 10.0):
            expected = initial @ expm(GENERATOR * t)
            result = csr_transient(GENERATOR, initial, t)
            assert np.allclose(result, expected, atol=1e-10)

    def test_mass_conserved(self):
        result = csr_transient(GENERATOR, np.array([0.5, 0.5]), 3.0)
        assert np.isclose(result.sum(), 1.0, atol=1e-10)

    def test_zero_time(self):
        initial = np.array([0.3, 0.7])
        assert np.allclose(csr_transient(GENERATOR, initial, 0.0), initial)

    def test_large_lt_stable(self):
        # L*t = 4 * 5000 = 20000: log-space Poisson weights must survive
        result = csr_transient(GENERATOR, np.array([1.0, 0.0]), 5000.0)
        assert np.allclose(result, [0.8, 0.2], atol=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(SolverError):
            csr_transient(GENERATOR, np.array([1.0, 0.0]), -1.0)

    def test_invalid_generator_rejected(self):
        with pytest.raises(SolverError):
            csr_transient(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0]), 1.0)


class TestExpmAndIntegral:
    def test_exponential_part(self):
        at, _ = expm_and_integral(GENERATOR, 0.7)
        assert np.allclose(at, expm(GENERATOR * 0.7))

    def test_integral_part_vs_quadrature(self):
        _, integral = expm_and_integral(GENERATOR, 2.0)
        steps = 20000
        dt = 2.0 / steps
        quad = sum(
            expm(GENERATOR * ((k + 0.5) * dt)) * dt for k in range(steps)
        )
        assert np.allclose(integral, quad, atol=1e-6)

    def test_zero_time(self):
        at, integral = expm_and_integral(GENERATOR, 0.0)
        assert np.allclose(at, np.eye(2))
        assert np.allclose(integral, np.zeros((2, 2)))

    def test_subgenerator_allowed(self):
        # rows need not sum to zero (absorbing remainder)
        sub = np.array([[-2.0, 0.5], [0.0, -1.0]])
        at, integral = expm_and_integral(sub, 1.0)
        assert np.all(at >= -1e-12)
        # total integral row sums = expected time alive, bounded by t
        assert np.all(integral.sum(axis=1) <= 1.0 + 1e-9)

    def test_negative_time_rejected(self):
        with pytest.raises(SolverError):
            expm_and_integral(GENERATOR, -0.5)


def van_loan_reference(matrix: np.ndarray, time: float) -> tuple[np.ndarray, np.ndarray]:
    """``(e^{At}, ∫_0^t e^{As} ds)`` from scipy on the Van Loan block matrix.

    Uses the unit-time form ``expm([[A t, I], [0, 0]]) = [[e^{At},
    ∫_0^1 e^{Asτ} dτ], [0, I]]`` and scales the integral by ``t``.  The
    form ``[[A, I], [0, 0]] · t`` is equivalent in exact arithmetic, but
    its identity block has norm ``t``: for ``‖A‖ ≪ 1`` scipy then picks
    its scaling from ``t`` instead of ``‖A t‖`` and loses up to ~1e-9
    relative accuracy at ``t‖A‖ ≈ 1e4``.
    """
    n = matrix.shape[0]
    augmented = np.zeros((2 * n, 2 * n))
    augmented[:n, :n] = matrix * time
    augmented[:n, n:] = np.eye(n)
    full = expm(augmented)
    return full[:n, :n], time * full[:n, n:]


def _norm(matrix: np.ndarray) -> float:
    return float(np.abs(matrix).sum(axis=0).max())


@st.composite
def generators_and_times(draw, max_states=8):
    """A generator or sub-generator ``A`` and a time with t·‖A‖₁ in [1e-3, 1e4]."""
    n = draw(st.integers(1, max_states))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    density = draw(st.floats(0.1, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    matrix = rng.exponential(scale, size=(n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(matrix, 0.0)
    outflow = matrix.sum(axis=1)
    if draw(st.booleans()):  # sub-generator: some mass leaves to absorbing exits
        outflow = outflow + rng.exponential(scale, size=n) * (rng.random(n) < 0.5)
    matrix[np.diag_indices(n)] = -outflow
    norm = _norm(matrix)
    if norm == 0.0:
        matrix[0, 0] = -scale
        norm = scale
    time = 10.0 ** draw(st.floats(-3.0, 4.0)) / norm
    return matrix, time


class TestExpmAndIntegralAgainstVanLoan:
    @given(generators_and_times())
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_reference(self, case):
        matrix, time = case
        exponential, integral = expm_and_integral(matrix, time)
        reference_exponential, reference_integral = van_loan_reference(matrix, time)
        # e^{At} of a (sub-)generator is substochastic: its natural scale is 1
        assert _norm(exponential - reference_exponential) <= 1e-10 * max(
            1.0, _norm(reference_exponential)
        )
        assert _norm(integral - reference_integral) <= 1e-10 * _norm(
            reference_integral
        )

    def test_one_by_one_is_scalar_formula(self):
        rate, time = 0.37, 5.0
        exponential, integral = expm_and_integral(np.array([[-rate]]), time)
        assert exponential[0, 0] == pytest.approx(
            np.exp(-rate * time), rel=1e-15, abs=0.0
        )
        assert integral[0, 0] == pytest.approx(
            -np.expm1(-rate * time) / rate, rel=1e-15, abs=0.0
        )

    def test_zero_matrix_integrates_to_time(self):
        exponential, integral = expm_and_integral(np.zeros((3, 3)), 7.5)
        np.testing.assert_array_equal(exponential, np.eye(3))
        np.testing.assert_array_equal(integral, 7.5 * np.eye(3))

    def test_zero_time_is_exact(self):
        exponential, integral = expm_and_integral(GENERATOR, 0.0)
        np.testing.assert_array_equal(exponential, np.eye(2))
        np.testing.assert_array_equal(integral, np.zeros((2, 2)))

    @pytest.mark.parametrize("time", [-1e-300, -0.5, float("nan")])
    def test_negative_or_nan_time_rejected(self, time):
        with pytest.raises(SolverError, match="time"):
            expm_and_integral(GENERATOR, time)

    def test_non_square_rejected(self):
        with pytest.raises(SolverError, match="square"):
            expm_and_integral(np.zeros((2, 3)), 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(SolverError, match="non-finite"):
            expm_and_integral(np.array([[-np.inf]]), 1.0)
