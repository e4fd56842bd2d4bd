"""Sparse CTMC numerics: CSR stationary solves and sparse uniformization.

The generator stays in CSR form end-to-end:

* :func:`stationary_distribution_sparse` — πQ = 0, Σπ = 1 through the
  anchored formulation of :func:`repro.markov.linear.stationary_solve`
  (recurrent class, one pinned anchor state, one factorization chosen
  by structural fill: LAPACK, SuperLU or ILU-preconditioned GMRES, with
  a power-iteration fallback).  :class:`~repro.markov.ctmc.CTMC` and
  the net solver both call it, so uniqueness is decided by one
  structural check with one :class:`~repro.errors.SolverError` text on
  reducible chains.
* :func:`transient_distribution_sparse` — Jensen's uniformization with a
  CSR matrix-vector product, walked in segments by
  :func:`repro.markov.uniformization.uniformized_walk`; it backs
  :meth:`CTMC.transient <repro.markov.ctmc.CTMC.transient>`.

Acceptance is the anchored solve's bar: a solution is returned only if
‖πQ‖∞ / Σπ ≤ 1e-8·max(1, |Q|ₘₐₓ).
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
from repro.markov.uniformization import uniformized_walk
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

    Off-diagonal entries may dip to ``-1e-12`` and row sums to
    ``1e-9 × max(1, |Q|max)``; never densifies.
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

    Computes ``initial @ expm(Q t)`` without forming the exponential:
    with ``L = max |Q_ii|`` and ``P = I + Q / L``,
    ``π(t) = Σ_k Poisson(k; L t) · initial @ P^k``, truncated once the
    Poisson tail falls below ``tolerance``.  Long horizons are walked in
    segments (:func:`repro.markov.uniformization.uniformized_walk`), so
    ``max_terms`` bounds each segment, not the horizon.
    """
    generator = check_sparse_generator(generator, what=what)
    if time < 0:
        raise SolverError(f"time must be >= 0, got {time}")
    initial = np.asarray(initial, dtype=float)
    if time == 0.0:
        return initial.copy()
    n = generator.shape[0]
    rate = max(float(-generator.diagonal().min()), 1e-300)
    # the transposed step as CSR: ``v @ P`` as ``Pᵀ v`` without
    # re-transposing ``P`` on every term
    step = sp.csr_array((sp.identity(n, format="csr") + generator / rate).T)
    with span("markov.sparse_transient", size=n):
        distribution, _ = uniformized_walk(
            lambda vector: step @ vector,
            initial,
            rate=rate,
            time=time,
            tolerance=tolerance,
            max_terms=max_terms,
        )
        return distribution
