"""Sparse CTMC numerics: CSR stationary solves and sparse uniformization.

The generator stays in CSR form end-to-end:

* :func:`stationary_distribution_sparse` — πQ = 0, Σπ = 1 through the
  anchored formulation of :func:`repro.markov.linear.stationary_solve`
  (recurrent class, one pinned anchor state, one factorization chosen
  by structural fill: LAPACK, SuperLU or ILU-preconditioned GMRES, with
  a power-iteration fallback).  The dense route runs the same solve, so
  both routes decide uniqueness with one structural check and raise the
  same :class:`~repro.errors.SolverError` text on reducible chains.
* :func:`transient_distribution_sparse` — Jensen's uniformization with a
  CSR matrix-vector product, sharing the Poisson-series truncation with
  the dense route (:func:`repro.markov.uniformization.uniformized_series`).

Acceptance mirrors the dense bar exactly (it is the same solve): a
solution is returned only if ‖πQ‖∞ / Σπ ≤ 1e-8·max(1, |Q|ₘₐₓ).
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.errors import SolverError
from repro.markov.linear import (
    SOLVERS,
    SparseSolveInfo,
    recurrent_states,
    stationary_solve,
)
from repro.markov.uniformization import uniformized_series
from repro.obs import counter, histogram, span

#: Stationary methods accepted by :func:`stationary_distribution_sparse`.
SPARSE_SOLVERS = SOLVERS

__all__ = [
    "SPARSE_SOLVERS",
    "SparseSolveInfo",
    "check_sparse_generator",
    "recurrent_states",
    "stationary_distribution_sparse",
    "transient_distribution_sparse",
]


def check_sparse_generator(matrix: Any, *, what: str) -> sp.csr_array:
    """Validate a CSR generator: non-negative off-diagonal, zero row sums.

    The sparse twin of :func:`repro.markov.linear.check_generator` —
    same tolerances, same error texts, never densifies.
    """
    if not sp.issparse(matrix):
        raise SolverError(f"{what}: expected a scipy.sparse matrix, got {type(matrix).__name__}")
    matrix = sp.csr_array(matrix)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise SolverError(f"{what}: generator must be square, got {matrix.shape}")
    coo = matrix.tocoo()
    off_diagonal = coo.data[coo.row != coo.col]
    if off_diagonal.size and off_diagonal.min() < -1e-12:
        raise SolverError(f"{what}: generator has negative off-diagonal entries")
    row_sums = np.abs(np.asarray(matrix.sum(axis=1)).ravel())
    scale = max(1.0, float(np.abs(matrix.data).max()) if matrix.nnz else 0.0)
    if np.any(row_sums > 1e-9 * scale):
        raise SolverError(
            f"{what}: generator rows do not sum to zero (max |sum| = {row_sums.max():.3e})"
        )
    return matrix


def stationary_distribution_sparse(
    generator: Any,
    *,
    what: str = "sparse generator",
    solver: str = "auto",
) -> tuple[np.ndarray, SparseSolveInfo]:
    """Solve ``πQ = 0``, ``Σπ = 1`` without ever densifying ``Q``.

    Parameters
    ----------
    generator:
        The CSR generator (any scipy.sparse format is accepted and
        converted; a dense array is rejected — build it sparse).
    solver:
        ``"auto"`` (default) — the factorization chosen by fill (see
        :func:`repro.markov.linear.choose_factorization`) with ILU-GMRES
        and power-iteration fallbacks; ``"gmres"`` — ILU-GMRES with the
        power fallback; ``"power"`` — power iteration on the uniformized
        chain only.

    Returns the normalized stationary vector and a
    :class:`SparseSolveInfo` provenance record.

    Raises
    ------
    ParameterError
        If ``solver`` is not one of :data:`SPARSE_SOLVERS`.
    SolverError
        If the chain is reducible (no unique stationary distribution) or
        no route achieves the acceptance residual.
    """
    generator = check_sparse_generator(generator, what=what)
    n = generator.shape[0]
    with span("markov.sparse_solve", size=n, solver=solver) as sp_span:
        pi, info = stationary_solve(generator, what=what, solver=solver)
        counter("markov.sparse_solves").inc()
        histogram("markov.sparse_residual").observe(info.residual)
        sp_span.set(
            resolved=info.solver,
            iterations=info.iterations,
            residual=info.residual,
            factorization=info.factorization,
            fill=info.fill,
        )
        return pi, info


def transient_distribution_sparse(
    generator: Any,
    initial: np.ndarray,
    time: float,
    *,
    what: str = "sparse transient generator",
    tolerance: float = 1e-12,
    max_terms: int = 1_000_000,
) -> np.ndarray:
    """Distribution at ``time`` via uniformization with CSR products.

    The Poisson-series truncation is shared verbatim with the dense
    route (:func:`repro.markov.uniformization.uniformized_series`); only
    the matrix-vector product differs, so dense and sparse transients
    agree to the series tolerance.
    """
    generator = check_sparse_generator(generator, what=what)
    if time < 0:
        raise SolverError(f"time must be >= 0, got {time}")
    initial = np.asarray(initial, dtype=float)
    if time == 0.0:
        return initial.copy()
    n = generator.shape[0]
    rate = max(float(-generator.diagonal().min()), 1e-300)
    step = sp.csr_array(sp.identity(n, format="csr") + generator / rate)
    with span("markov.sparse_transient", size=n):
        return uniformized_series(
            lambda vector: vector @ step,
            initial,
            poisson_mean=rate * time,
            tolerance=tolerance,
            max_terms=max_terms,
        )
