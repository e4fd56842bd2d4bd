"""Robust linear-algebra helpers for Markov solvers."""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.csgraph import connected_components

from repro.errors import SolverError
from repro.obs import counter, histogram, span

#: Acceptance bar for the stationary residual, relative to max(1, |Q|max).
_RESIDUAL_TOLERANCE = 1e-8
#: Iterative refinement stops at this residual (same scale) or once it
#: stops improving — the sparse route's refinement target.
_TARGET_TOLERANCE = 1e-12
_MAX_REFINEMENTS = 3
_NEGATIVE_TOLERANCE = 1e-10


def normalize_distribution(vector: np.ndarray, *, what: str) -> np.ndarray:
    """Clip tiny negative entries and renormalize to sum 1.

    Iterative solvers hand in solutions at arbitrary scale (the sparse
    removed-state route pins one entry to 1 and the rest can run to
    1e4+), so "significantly negative" is judged relative to the
    vector's magnitude — an entry at round-off level of the largest
    component is noise, not a solver failure.

    Raises
    ------
    SolverError
        If the vector has significantly negative entries or a
        non-positive sum — both indicate a solver failure upstream.
    """
    scale = max(1.0, float(np.abs(vector).max()))
    if np.any(vector < -1e-7 * scale):
        raise SolverError(
            f"{what} has negative entries (min {vector.min():.3e}); "
            "the model or solver is inconsistent"
        )
    clipped = np.where(vector < _NEGATIVE_TOLERANCE, 0.0, vector)
    total = clipped.sum()
    if total <= 0.0:
        raise SolverError(f"{what} sums to {total}; cannot normalize")
    return clipped / total


def recurrent_states(generator: Any, *, what: str) -> np.ndarray:
    """Boolean mask of the unique terminal (recurrent) class of ``generator``.

    Decomposes the positive-rate transition structure (dense or any
    scipy.sparse format) into strongly connected components and demands
    exactly one *terminal* class (no edge leaving it).  A chain with
    several terminal classes has no unique stationary distribution; the
    dense and the sparse stationary routes both decide uniqueness here,
    so they fail with one error text on reducible models.
    """
    n = generator.shape[0]
    coo = sp.coo_array(generator)
    positive = (coo.data > 0.0) & (coo.row != coo.col)
    rows, cols = coo.row[positive], coo.col[positive]
    pattern = sp.csr_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    n_components, labels = connected_components(
        pattern, directed=True, connection="strong"
    )
    terminal = np.ones(n_components, dtype=bool)
    crossing = labels[rows] != labels[cols]
    terminal[labels[rows[crossing]]] = False
    terminal_classes = np.flatnonzero(terminal)
    if len(terminal_classes) != 1:
        raise SolverError(
            f"{what}: stationary distribution is not unique; the chain is "
            "reducible with multiple recurrent classes"
        )
    return labels == terminal_classes[0]


def solve_bordered(
    matrix: np.ndarray, rhs: np.ndarray, total: float
) -> tuple[np.ndarray, float]:
    """Solve ``x @ matrix = rhs`` with ``sum(x) = total`` by one pivoted LU.

    ``matrix`` is a generator with a unique stationary distribution
    (see :func:`recurrent_states`), so ``[Q^T; 1]`` has full column rank
    and ``rhs`` must be consistent with it (``rhs @ 1 = 0``).  The
    columns of ``Q`` sum to zero only in the combination ``Q 1 = 0``, so
    any one balance equation is implied by the others; the first is
    replaced by the normalization row.  The square system is factored
    once, and iterative refinement polishes the solution against the
    residual of the full bordered system
    ``max(‖x Q - rhs‖∞, |Σx - total|)``, which is returned with the
    solution (NaN if the solve broke down).
    """
    system = matrix.T.copy()
    system[0] = 1.0
    target = rhs.copy()
    target[0] = total
    factors = lu_factor(system, check_finite=False)

    def residual_of(x: np.ndarray) -> float:
        balance = float(np.abs(x @ matrix - rhs).max())
        return max(balance, abs(float(x.sum()) - total))

    solution = lu_solve(factors, target, check_finite=False)
    residual = residual_of(solution)
    goal = _TARGET_TOLERANCE * max(1.0, float(np.abs(matrix).max()))
    # the comparisons are negated so that a NaN residual stops refining
    for _ in range(_MAX_REFINEMENTS):
        if not residual > goal:
            break
        candidate = solution + lu_solve(
            factors, target - system @ solution, check_finite=False
        )
        candidate_residual = residual_of(candidate)
        if not candidate_residual < residual:
            break
        solution, residual = candidate, candidate_residual
    return solution, residual


def solve_stationary(matrix: np.ndarray, *, what: str) -> np.ndarray:
    """Solve ``pi @ matrix = 0`` (CTMC) with ``sum(pi) = 1``.

    ``matrix`` must be a generator (rows summing to zero).  Uniqueness
    is decided structurally by :func:`recurrent_states`; the system is
    then solved by :func:`solve_bordered` (one pivoted LU plus
    iterative refinement), which stays well-behaved for chains with
    transient states, and the residual is validated.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise SolverError(f"{what}: generator must be square, got {matrix.shape}")
    with span("markov.linear_solve", size=n) as sp_span:
        recurrent_states(matrix, what=what)
        solution, residual = solve_bordered(matrix, np.zeros(n), 1.0)
        counter("markov.linear_solves").inc()
        histogram("markov.linear_residual").observe(residual)
        sp_span.set(residual=residual)
        # negated so that a NaN residual (a broken-down solve) fails too
        if not residual <= _RESIDUAL_TOLERANCE * max(1.0, np.abs(matrix).max()):
            raise SolverError(
                f"{what}: stationary solve residual {residual:.3e} too large; "
                "the chain may be reducible with multiple recurrent classes"
            )
        return normalize_distribution(solution, what=what)


def solve_stationary_stochastic(matrix: np.ndarray, *, what: str) -> np.ndarray:
    """Solve ``pi @ P = pi`` (DTMC) with ``sum(pi) = 1``."""
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise SolverError(f"{what}: matrix must be square, got {matrix.shape}")
    return solve_stationary(matrix - np.eye(n), what=what)


def check_generator(matrix: np.ndarray, *, what: str) -> np.ndarray:
    """Validate a CTMC generator: non-negative off-diagonal, zero row sums."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise SolverError(f"{what}: generator must be square, got {matrix.shape}")
    off_diagonal = matrix - np.diag(np.diag(matrix))
    if np.any(off_diagonal < -1e-12):
        raise SolverError(f"{what}: generator has negative off-diagonal entries")
    row_sums = np.abs(matrix.sum(axis=1))
    scale = max(1.0, np.abs(matrix).max())
    if np.any(row_sums > 1e-9 * scale):
        raise SolverError(
            f"{what}: generator rows do not sum to zero (max |sum| = {row_sums.max():.3e})"
        )
    return matrix


def check_stochastic(matrix: np.ndarray, *, what: str, substochastic: bool = False) -> np.ndarray:
    """Validate a (sub)stochastic matrix."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise SolverError(f"{what}: matrix must be square, got {matrix.shape}")
    if np.any(matrix < -1e-12):
        raise SolverError(f"{what}: matrix has negative entries")
    row_sums = matrix.sum(axis=1)
    if substochastic:
        if np.any(row_sums > 1.0 + 1e-9):
            raise SolverError(f"{what}: row sums exceed 1")
    else:
        if np.any(np.abs(row_sums - 1.0) > 1e-9):
            raise SolverError(
                f"{what}: rows do not sum to 1 (max deviation "
                f"{np.abs(row_sums - 1.0).max():.3e})"
            )
    return matrix
