"""Unit tests for the sparse CTMC numerics (repro.markov.sparse)."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import null_space

from repro.errors import ParameterError, SolverError
from repro.markov.linear import solve_stationary
from repro.markov.sparse import (
    SPARSE_SOLVERS,
    SparseSolveInfo,
    check_sparse_generator,
    recurrent_states,
    stationary_distribution_sparse,
    transient_distribution_sparse,
)
from repro.obs import tracing


def random_ergodic_generator(n, *, seed, out_degree=4):
    """A dense irreducible generator (a random graph plus a ring)."""
    rng = np.random.default_rng(seed)
    generator = np.zeros((n, n))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        targets = rng.choice(others, size=min(out_degree, n - 1), replace=False)
        generator[i, targets] = rng.uniform(0.1, 2.0, size=len(targets))
        generator[i, (i + 1) % n] += 0.5  # the ring forces irreducibility
    np.fill_diagonal(generator, -generator.sum(axis=1))
    return generator


def reducible_generator():
    """Two disconnected 2-cycles: two recurrent classes, no unique pi."""
    return np.array(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -2.0, 2.0],
            [0.0, 0.0, 2.0, -2.0],
        ]
    )


class TestCheckSparseGenerator:
    def test_rejects_dense_arrays(self):
        with pytest.raises(SolverError, match="expected a scipy.sparse"):
            check_sparse_generator(np.zeros((2, 2)), what="test")

    def test_rejects_nonzero_row_sums(self):
        matrix = sp.csr_array(np.array([[-1.0, 0.5], [1.0, -1.0]]))
        with pytest.raises(SolverError, match="do not sum to zero"):
            check_sparse_generator(matrix, what="test")

    def test_rejects_negative_off_diagonal(self):
        matrix = sp.csr_array(np.array([[1.0, -1.0], [1.0, -1.0]]))
        with pytest.raises(SolverError, match="negative off-diagonal"):
            check_sparse_generator(matrix, what="test")

    def test_rejects_non_square(self):
        matrix = sp.csr_array(np.zeros((2, 3)))
        with pytest.raises(SolverError, match="must be square"):
            check_sparse_generator(matrix, what="test")

    def test_accepts_any_sparse_format(self):
        generator = sp.coo_array(random_ergodic_generator(5, seed=1))
        checked = check_sparse_generator(generator, what="test")
        assert isinstance(checked, sp.csr_array)


class TestRecurrentStates:
    def test_irreducible_chain_is_fully_recurrent(self):
        generator = sp.csr_array(random_ergodic_generator(10, seed=2))
        assert recurrent_states(generator, what="test").all()

    def test_transient_states_are_excluded(self):
        # state 0 drains into the 1<->2 cycle and is never revisited
        generator = sp.csr_array(
            np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]])
        )
        mask = recurrent_states(generator, what="test")
        assert mask.tolist() == [False, True, True]

    def test_multiple_recurrent_classes_raise(self):
        generator = sp.csr_array(reducible_generator())
        with pytest.raises(SolverError, match="not unique"):
            recurrent_states(generator, what="test")


class TestStationarySparse:
    @pytest.mark.parametrize("solver", SPARSE_SOLVERS)
    def test_agrees_with_dense_route(self, solver):
        dense = random_ergodic_generator(120, seed=3)
        # the reference shares no code with the solver: the left null
        # vector of Q by SVD
        expected = null_space(dense.T)[:, 0]
        expected /= expected.sum()
        pi, info = stationary_distribution_sparse(
            sp.csr_array(dense), solver=solver, what="sparse"
        )
        np.testing.assert_allclose(pi, expected, atol=1e-9, rtol=0.0)
        resolved = {"auto": "lapack", "gmres": "ilu-gmres", "power": "power"}
        assert info.factorization == resolved[solver]
        assert info.residual <= info.tolerance
        assert info.n_states == 120

    def test_unknown_solver_rejected_eagerly(self):
        generator = sp.csr_array(random_ergodic_generator(5, seed=4))
        with pytest.raises(
            ParameterError, match=r"valid solvers: auto, gmres, power"
        ):
            stationary_distribution_sparse(generator, solver="qr")

    def test_single_state_chain(self):
        pi, info = stationary_distribution_sparse(
            sp.csr_array(np.zeros((1, 1))), what="test"
        )
        assert pi.tolist() == [1.0]
        assert info.solver == "direct"

    def test_reducible_raises_the_dense_error(self):
        sparse_error = dense_error = None
        try:
            solve_stationary(reducible_generator(), what="test")
        except SolverError as error:
            dense_error = str(error)
        try:
            stationary_distribution_sparse(
                sp.csr_array(reducible_generator()), what="test"
            )
        except SolverError as error:
            sparse_error = str(error)
        assert dense_error is not None
        assert sparse_error == dense_error

    def test_transient_states_get_zero_mass(self):
        generator = np.array(
            [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]]
        )
        pi, _ = stationary_distribution_sparse(sp.csr_array(generator), what="test")
        expected = solve_stationary(generator, what="test")
        np.testing.assert_allclose(pi, expected, atol=1e-10)
        assert pi[0] == 0.0

    def test_info_dict_roundtrip(self):
        generator = sp.csr_array(random_ergodic_generator(30, seed=5))
        _, info = stationary_distribution_sparse(generator, what="test")
        record = info.as_dict()
        assert record["solver"] == "direct"
        assert set(record) == {
            "solver",
            "n_states",
            "nnz",
            "iterations",
            "refinements",
            "residual",
            "tolerance",
            "preconditioner",
            "reordering",
            "fallback",
            "factorization",
            "fill",
        }
        assert SparseSolveInfo(**record) == info


class TestSolveRecord:
    def test_spans_record_the_factorization_and_fill(self):
        dense = random_ergodic_generator(30, seed=5)
        with tracing() as tracer:
            _, info = stationary_distribution_sparse(sp.csr_array(dense), what="test")
            solve_stationary(dense, what="test")
        measures = {
            record.name: record.measures
            for record in tracer.records
            if record.name in ("markov.sparse_solve", "markov.linear_solve")
        }
        for name in ("markov.sparse_solve", "markov.linear_solve"):
            assert measures[name]["factorization"] == "lapack"
            # a dense LU stores n² entries; no RCM estimate is made for it
            assert measures[name]["fill"] == info.fill == 30 * 30
        assert measures["markov.sparse_solve"]["iterations"] == 0

    def test_large_sparse_chain_is_factored_by_superlu(self):
        rng = np.random.default_rng(9)
        n = 400
        dense = np.zeros((n, n))
        for i in range(n):  # a ring plus random short jumps: a narrow band
            dense[i, (i + 1) % n] = 1.0
            dense[i, (i + rng.integers(-3, 4)) % n] += rng.uniform(0.1, 2.0)
        np.fill_diagonal(dense, 0.0)
        np.fill_diagonal(dense, -dense.sum(axis=1))
        generator = sp.csr_array(dense)
        pi, info = stationary_distribution_sparse(generator, what="test")
        assert (info.solver, info.factorization) == ("direct", "superlu")
        assert (info.iterations, info.reordering) == (0, "mmd")
        gmres_pi, _ = stationary_distribution_sparse(generator, solver="gmres")
        np.testing.assert_allclose(pi, gmres_pi, atol=1e-9, rtol=0.0)


class TestTransientSparse:
    def test_agrees_with_expm(self):
        from scipy.linalg import expm

        dense = random_ergodic_generator(60, seed=6)
        initial = np.zeros(60)
        initial[0] = 1.0
        for time in (0.5, 3.0, 25.0):
            expected = initial @ expm(dense * time)
            actual = transient_distribution_sparse(
                sp.csr_array(dense), initial, time
            )
            np.testing.assert_allclose(actual, expected, atol=1e-11, rtol=0.0)

    def test_time_zero_returns_initial(self):
        generator = sp.csr_array(random_ergodic_generator(5, seed=7))
        initial = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
        out = transient_distribution_sparse(generator, initial, 0.0)
        np.testing.assert_array_equal(out, initial)
        assert out is not initial

    def test_negative_time_rejected(self):
        generator = sp.csr_array(random_ergodic_generator(5, seed=8))
        with pytest.raises(SolverError, match="time must be >= 0"):
            transient_distribution_sparse(generator, np.ones(5) / 5, -1.0)

    def test_long_horizon_is_walked_in_segments(self):
        """A horizon of 40 000 Poisson terms runs in segments, each well
        inside ``max_terms``, and keeps the closed form of the up/down chain."""
        fail, repair, time = 1.0, 2.0, 20_000.0  # L·t = 40 000 terms
        generator = sp.csr_array(np.array([[-fail, fail], [repair, -repair]]))
        actual = transient_distribution_sparse(
            generator, np.array([1.0, 0.0]), time, max_terms=15_000
        )
        up = repair / (fail + repair)
        expected_up = up + (1.0 - up) * np.exp(-(fail + repair) * time)
        np.testing.assert_allclose(actual, [expected_up, 1.0 - expected_up], atol=1e-12)
