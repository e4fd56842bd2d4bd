"""Property tests for the sparse stationary solvers.

Random ergodic CTMC families: the anchored LU, ILU-GMRES and power
iteration must all land on the same stationary vector; the dense LU
also agrees with a least-squares solve of ``[Q^T; 1]`` and
with the sparse route on chains with transient states; random
reducible families must raise the same typed error with the same text
on the dense and the sparse route.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.markov.linear import solve_stationary
from repro.markov.sparse import stationary_distribution_sparse


@st.composite
def ergodic_generators(draw):
    """Random irreducible generators: sparse random edges plus a ring."""
    n = draw(st.integers(min_value=2, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    generator = np.zeros((n, n))
    out_degree = min(n - 1, int(draw(st.integers(min_value=1, max_value=5))))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        targets = rng.choice(others, size=out_degree, replace=False)
        generator[i, targets] = rng.uniform(0.05, 5.0, size=out_degree)
        generator[i, (i + 1) % n] += rng.uniform(0.1, 1.0)
    np.fill_diagonal(generator, -generator.sum(axis=1))
    return generator


@st.composite
def transient_generators(draw):
    """``(Q, m)``: a random recurrent class of states ``0..m-1`` plus
    transient states that drain into it."""
    recurrent = draw(st.integers(min_value=1, max_value=20))
    transient = draw(st.integers(min_value=1, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n = recurrent + transient
    generator = np.zeros((n, n))
    for i in range(recurrent):
        if recurrent > 1:
            generator[i, (i + 1) % recurrent] = rng.uniform(0.1, 1.0)
            generator[i, rng.integers(recurrent)] += rng.uniform(0.05, 5.0)
    for i in range(recurrent, n):
        generator[i, rng.integers(recurrent)] = rng.uniform(0.05, 5.0)
        generator[i, rng.integers(recurrent, n)] += rng.uniform(0.05, 5.0)
    np.fill_diagonal(generator, 0.0)
    np.fill_diagonal(generator, -generator.sum(axis=1))
    return generator, recurrent


def _lstsq_stationary(generator: np.ndarray) -> np.ndarray:
    """Reference: the least-squares solution of ``[Q^T; 1] pi = [0; 1]``."""
    n = generator.shape[0]
    system = np.vstack([generator.T, np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return solution


@st.composite
def reducible_generators(draw):
    """Block-diagonal generators with two isolated recurrent cycles."""
    sizes = (
        draw(st.integers(min_value=2, max_value=6)),
        draw(st.integers(min_value=2, max_value=6)),
    )
    rate_seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(rate_seed)
    n = sum(sizes)
    generator = np.zeros((n, n))
    offset = 0
    for size in sizes:
        for i in range(size):
            j = (i + 1) % size
            generator[offset + i, offset + j] = rng.uniform(0.1, 3.0)
        offset += size
    np.fill_diagonal(generator, -generator.sum(axis=1))
    return generator


class TestAllRoutesAgree:
    @settings(max_examples=40, deadline=None)
    @given(generator=ergodic_generators())
    def test_gmres_power_and_dense_lu_agree(self, generator):
        expected = solve_stationary(generator, what="dense")
        csr = sp.csr_array(generator)
        for solver in ("gmres", "power"):
            pi, info = stationary_distribution_sparse(
                csr, solver=solver, what="sparse"
            )
            np.testing.assert_allclose(
                pi, expected, atol=1e-8, rtol=0.0,
                err_msg=f"{solver} disagrees with dense LU",
            )
            assert info.residual <= info.tolerance
            assert abs(pi.sum() - 1.0) <= 1e-12
            assert pi.min() >= 0.0


class TestDenseLUAgainstReferences:
    @settings(max_examples=40, deadline=None)
    @given(
        generator=st.one_of(
            ergodic_generators(), transient_generators().map(lambda chain: chain[0])
        )
    )
    def test_lu_agrees_with_lstsq_and_the_sparse_route(self, generator):
        pi = solve_stationary(generator, what="dense")
        np.testing.assert_allclose(
            pi, _lstsq_stationary(generator), atol=1e-9, rtol=0.0,
            err_msg="dense LU disagrees with the least-squares reference",
        )
        sparse_pi, _ = stationary_distribution_sparse(
            sp.csr_array(generator), what="sparse"
        )
        np.testing.assert_allclose(
            pi, sparse_pi, atol=1e-9, rtol=0.0,
            err_msg="dense LU disagrees with the sparse route",
        )

    @settings(max_examples=25, deadline=None)
    @given(chain=transient_generators())
    def test_transient_states_carry_no_mass(self, chain):
        generator, recurrent = chain
        pi = solve_stationary(generator, what="dense")
        assert np.all(pi[recurrent:] <= 1e-12)
        assert pi[:recurrent].min() > 0.0
        assert abs(pi.sum() - 1.0) <= 1e-12


class TestReducibleChains:
    @settings(max_examples=25, deadline=None)
    @given(generator=reducible_generators())
    def test_both_routes_raise_the_same_error(self, generator):
        with pytest.raises(SolverError) as dense_error:
            solve_stationary(generator, what="chain")
        with pytest.raises(SolverError) as sparse_error:
            stationary_distribution_sparse(sp.csr_array(generator), what="chain")
        assert "not unique" in str(sparse_error.value)
        assert str(sparse_error.value) == str(dense_error.value)
