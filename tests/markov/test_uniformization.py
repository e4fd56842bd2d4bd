"""Tests for uniformization and matrix-exponential integrals."""

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from scipy.linalg import expm

from repro.errors import SolverError
from repro.markov import uniformization
from repro.markov.sparse import transient_distribution_sparse
from repro.markov.uniformization import block_layout, expm_and_integral
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_rejuvenation_net
from repro.statespace import tangible_reachability

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


@st.composite
def planted_component_generators(draw):
    """A (sub-)generator of 2-6 planted strongly connected components.

    Each component of 20-80 states is a cycle plus random inner rates;
    rates between components only run forward in a random topological
    order, and the states are then shuffled, so :func:`block_layout`
    must recover the order.  Returns the matrix, a time with t·‖A‖₁ in
    [1e-1, 1e3], and the planted component of every state.
    """
    sizes = draw(st.lists(st.integers(20, 80), min_size=2, max_size=6))
    seed = draw(st.integers(0, 2**32 - 1))
    exits = draw(st.booleans())
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    component = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum([0, *sizes])
    matrix = rng.exponential(1.0, (n, n)) * (rng.random((n, n)) < 4.0 / n)
    matrix *= component[:, None] <= component[None, :]  # forward only
    for start, stop in zip(starts, starts[1:]):
        members = np.arange(start, stop)
        matrix[members, np.roll(members, -1)] += rng.exponential(1.0, stop - start)
    for earlier in range(len(sizes) - 1):  # every component feeds the next
        matrix[rng.integers(starts[earlier], starts[earlier + 1]), starts[earlier + 1]] += 1.0
    np.fill_diagonal(matrix, 0.0)
    outflow = matrix.sum(axis=1)
    if exits:
        outflow = outflow + rng.exponential(1.0, n) * (rng.random(n) < 0.2)
    matrix[np.diag_indices(n)] = -outflow
    shuffle = rng.permutation(n)
    matrix = matrix[np.ix_(shuffle, shuffle)]
    time = 10.0 ** draw(st.floats(-1.0, 3.0)) / _norm(matrix)
    return matrix, time, component[shuffle]


def _subgenerator(n_modules, r):
    """The subordinated generator of a rejuvenating perception net."""
    parameters = PerceptionParameters(n_modules=n_modules, f=1, r=r, rejuvenation=True)
    graph = tangible_reachability(build_rejuvenation_net(parameters))
    rates = np.zeros((graph.n_states, graph.n_states))
    for state in range(graph.n_states):
        for edge in graph.exponential_edges[state]:
            for target, probability in edge.targets:
                rates[state, target] += edge.rate * probability
    np.fill_diagonal(rates, rates.diagonal() - rates.sum(axis=1))
    return rates, graph.deterministic_edges[0][0].delay


def _one_block(matrix):
    n = matrix.shape[0]
    return np.arange(n), np.array([0, n])


class TestBlockLayout:
    @given(planted_component_generators())
    @settings(max_examples=25, deadline=None)
    def test_planted_components_match_scipy_reference(self, case):
        matrix, time, component = case
        order, bounds = block_layout(matrix)
        permuted = matrix[np.ix_(order, order)]
        for start, stop in zip(bounds, bounds[1:]):
            assert not permuted[stop:, start:stop].any()  # zero below the diagonal
        if len(bounds) > 2:
            assert np.diff(bounds).min() >= 32
            # blocks are unions of whole components
            block = np.searchsorted(bounds, np.arange(len(order)), side="right") - 1
            for planted in np.unique(component):
                assert len(set(block[component[order] == planted])) == 1
        exponential, integral = expm_and_integral(matrix, time)
        reference_exponential, reference_integral = van_loan_reference(matrix, time)
        assert _norm(exponential - reference_exponential) <= 1e-10 * max(
            1.0, _norm(reference_exponential)
        )
        assert _norm(integral - reference_integral) <= 1e-10 * _norm(reference_integral)

    @pytest.mark.parametrize("n_modules, r, blocks", [(10, 1, 3), (12, 2, 6)])
    def test_perception_components(self, n_modules, r, blocks):
        matrix, _ = _subgenerator(n_modules, r)
        order, bounds = block_layout(matrix)
        assert len(bounds) - 1 == blocks
        np.testing.assert_array_equal(np.sort(order), np.arange(matrix.shape[0]))

    def test_small_chain_is_dense(self):
        matrix, _ = _subgenerator(8, 1)  # 117 states, three components
        order, bounds = block_layout(matrix)
        assert matrix.shape == (117, 117)
        np.testing.assert_array_equal(order, np.arange(117))
        np.testing.assert_array_equal(bounds, [0, 117])

    def test_irreducible_generator_is_one_block(self):
        rng = np.random.default_rng(5)
        matrix = rng.exponential(1.0, (200, 200))
        np.fill_diagonal(matrix, 0.0)
        np.fill_diagonal(matrix, -matrix.sum(axis=1))
        order, bounds = block_layout(matrix)
        np.testing.assert_array_equal(order, np.arange(200))
        np.testing.assert_array_equal(bounds, [0, 200])

    def test_singleton_chain_merges_into_blocks_of_32(self):
        n = 200
        shuffle = np.random.default_rng(3).permutation(n)
        matrix = np.diag(np.full(n - 1, 2.0), 1) - np.diag(np.full(n, 2.0))
        matrix = matrix[np.ix_(shuffle, shuffle)]
        order, bounds = block_layout(matrix)
        np.testing.assert_array_equal(bounds, [0, 32, 64, 96, 128, 160, n])
        # the chain's own order: state k precedes state k + 1
        np.testing.assert_array_equal(shuffle[order], np.arange(n))


#: Rejuvenating perception shapes that take the block path (N 6-8 at
#: r=1 stay under 128 states and take the dense one).
BLOCKED_SHAPES = [(8, 2)] + [
    (n_modules, r) for n_modules in range(9, 17) for r in (1, 2)
]


class TestBlockPathAgainstDense:
    @pytest.mark.parametrize("n_modules, r", BLOCKED_SHAPES)
    def test_perception_kernels_agree(self, n_modules, r, monkeypatch):
        matrix, delay = _subgenerator(n_modules, r)
        assert len(block_layout(matrix)[1]) > 2
        exponential, integral = expm_and_integral(matrix, delay)
        monkeypatch.setattr(uniformization, "block_layout", _one_block)
        dense_exponential, dense_integral = expm_and_integral(matrix, delay)
        assert np.abs(exponential - dense_exponential).max() <= 1e-13
        assert np.abs(integral - dense_integral).max() <= 1e-13 * _norm(dense_integral)
