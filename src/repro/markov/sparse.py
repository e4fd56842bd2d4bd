"""Sparse CTMC numerics: Krylov stationary solves and sparse uniformization.

The dense path (:mod:`repro.markov.linear`) factors ``Q^T``, with one
balance equation replaced by the normalization row, by one pivoted LU —
O(n³) and hopeless past a few thousand states.  This module keeps the
generator in CSR form end-to-end and solves the same two problems
iteratively:

* :func:`stationary_distribution_sparse` — πQ = 0, Σπ = 1 via the
  removed-state formulation: pick an anchor state in the (unique)
  terminal strongly-connected class, fix π_anchor = 1, and solve the
  nonsingular system ``Q_BB^T x = −Q_aB^T`` with RCM reordering, an ILU
  preconditioner, and restarted GMRES (or BiCGStab) inside an iterative-
  refinement loop driven by the *true* residual ‖πQ‖∞ — the Krylov
  rtol alone is unattainable on ill-conditioned chains whose stationary
  mass spans many orders of magnitude.  A power-iteration fallback on
  the uniformized chain covers preconditioner breakdowns.
* :func:`transient_distribution_sparse` — Jensen's uniformization with a
  CSR matrix-vector product, sharing the Poisson-series truncation with
  the dense route (:func:`repro.markov.uniformization.uniformized_series`).

Acceptance mirrors the dense bar exactly: a solution is returned only if
‖πQ‖∞ ≤ 1e-8·max(1, |Q|ₘₐₓ).  Both routes decide uniqueness with one
structural check, :func:`repro.markov.linear.recurrent_states`, so
reducible chains raise the same :class:`~repro.errors.SolverError` text
on both paths and the differential harness can assert identical
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import LinearOperator, bicgstab, gmres, spilu

from repro.errors import ParameterError, SolverError
from repro.markov.linear import normalize_distribution, recurrent_states
from repro.markov.uniformization import uniformized_series
from repro.obs import counter, histogram, span

#: Iterative routes accepted by :func:`stationary_distribution_sparse`.
SPARSE_SOLVERS = ("bicgstab", "gmres", "power")

#: Acceptance bar for ‖πQ‖∞ / Σπ, relative to max(1, |Q|max) — the same
#: bar :func:`repro.markov.linear.solve_stationary` applies densely.
_RESIDUAL_TOLERANCE = 1e-8

#: Refinement target (well below the acceptance bar; usually reached in
#: one or two Krylov passes thanks to the ILU preconditioner).
_TARGET_TOLERANCE = 1e-12

#: Per-pass Krylov settings.  The linear-system rtol is deliberately
#: modest: convergence is judged on the measured ‖πQ‖∞ between passes,
#: not on the (often unattainable) Krylov residual.
_KRYLOV_RTOL = 1e-8
_GMRES_RESTART = 30
_KRYLOV_MAXITER = 10  # outer restarts (gmres) / 300 iterations (bicgstab)

_MAX_REFINEMENTS = 8
_POWER_CHECK_EVERY = 50
_POWER_MAX_STEPS = 200_000


@dataclass(frozen=True)
class SparseSolveInfo:
    """Provenance of one iterative stationary solve.

    Travels with the solution into certificates and the run manifest so
    an iterative result can always be audited: which Krylov method
    produced it, how hard it worked, and what residual it achieved.
    """

    solver: str  # "gmres" | "bicgstab" | "power" | "direct"
    n_states: int
    nnz: int
    iterations: int
    refinements: int
    residual: float  # achieved ‖πQ‖∞ / Σπ (pre-normalization)
    tolerance: float  # acceptance bar the residual was held to
    preconditioner: str = "none"  # "ilu" | "none"
    reordering: str = "none"  # "rcm" | "none"
    fallback: bool = False  # True when the Krylov route fell back to power

    def as_dict(self) -> dict[str, Any]:
        return {
            "solver": self.solver,
            "n_states": self.n_states,
            "nnz": self.nnz,
            "iterations": self.iterations,
            "refinements": self.refinements,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "preconditioner": self.preconditioner,
            "reordering": self.reordering,
            "fallback": self.fallback,
        }


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
    solver: str = "gmres",
    tolerance: float = _RESIDUAL_TOLERANCE,
    target: float = _TARGET_TOLERANCE,
    max_refinements: int = _MAX_REFINEMENTS,
) -> tuple[np.ndarray, SparseSolveInfo]:
    """Solve ``πQ = 0``, ``Σπ = 1`` without ever densifying ``Q``.

    Parameters
    ----------
    generator:
        The CSR generator (any scipy.sparse format is accepted and
        converted; a dense array is rejected — build it sparse).
    solver:
        ``"gmres"`` (default) or ``"bicgstab"`` — RCM + ILU + Krylov with
        power-iteration fallback; ``"power"`` — power iteration on the
        uniformized chain only.
    tolerance:
        Acceptance bar for the normalized residual ‖πQ‖∞ / Σπ, relative
        to max(1, |Q|max).  Defaults to the dense route's ``1e-8``.
    target:
        Refinement target (the loop keeps polishing below ``tolerance``
        until this is reached or refinements run out).

    Returns the normalized stationary vector and a
    :class:`SparseSolveInfo` provenance record.

    Raises
    ------
    SolverError
        If the chain is reducible (no unique stationary distribution) or
        no route achieves the acceptance residual.
    """
    if solver not in SPARSE_SOLVERS:
        raise ParameterError(
            f"unknown sparse solver {solver!r}; "
            f"valid solvers: {', '.join(sorted(SPARSE_SOLVERS))}"
        )
    generator = check_sparse_generator(generator, what=what)
    n = generator.shape[0]
    if n == 0:
        raise SolverError(f"{what}: generator is empty")
    scale = max(1.0, float(np.abs(generator.data).max()) if generator.nnz else 0.0)

    with span("markov.sparse_solve", size=n, solver=solver) as sp_span:
        recurrent = recurrent_states(generator, what=what)
        if n == 1:
            info = SparseSolveInfo(
                solver="direct",
                n_states=1,
                nnz=int(generator.nnz),
                iterations=0,
                refinements=0,
                residual=0.0,
                tolerance=tolerance,
            )
            return np.ones(1), info

        pi = None
        info = None
        if solver in ("gmres", "bicgstab"):
            pi, info = _krylov_stationary(
                generator,
                recurrent,
                solver=solver,
                scale=scale,
                tolerance=tolerance,
                target=target,
                max_refinements=max_refinements,
            )
        if pi is None:
            fallback = solver != "power"
            pi, info = _power_stationary(
                generator,
                scale=scale,
                tolerance=tolerance,
                target=target,
                fallback=fallback,
            )
        if pi is None:
            raise SolverError(
                f"{what}: stationary solve residual {info.residual:.3e} too large; "
                "the chain may be reducible with multiple recurrent classes"
            )
        counter("markov.sparse_solves").inc()
        histogram("markov.sparse_residual").observe(info.residual)
        sp_span.set(
            resolved=info.solver,
            iterations=info.iterations,
            residual=info.residual,
        )
        return normalize_distribution(pi, what=what), info


def _normalized_residual(pi: np.ndarray, generator: sp.csr_array) -> float:
    """‖πQ‖∞ / Σπ — the convergence criterion both routes share."""
    total = float(pi.sum())
    if total <= 0.0:
        return float("inf")
    return float(np.abs(pi @ generator).max()) / total


def _krylov_stationary(
    generator: sp.csr_array,
    recurrent: np.ndarray,
    *,
    solver: str,
    scale: float,
    tolerance: float,
    target: float,
    max_refinements: int,
) -> tuple[np.ndarray | None, SparseSolveInfo | None]:
    """RCM + ILU + GMRES/BiCGStab with residual-driven refinement.

    Returns ``(None, None)`` when the route cannot reach the acceptance
    residual (the caller then falls back to power iteration).
    """
    n = generator.shape[0]
    # RCM on the symmetrized pattern shrinks ILU fill dramatically.
    pattern = sp.csr_matrix(
        (np.ones(generator.nnz), generator.indices, generator.indptr), shape=(n, n)
    )
    permutation = np.asarray(
        reverse_cuthill_mckee(pattern + pattern.T, symmetric_mode=True)
    )
    permuted = sp.csr_array(generator[permutation][:, permutation])

    # Anchor a state inside the terminal class: fixing pi_anchor = 1
    # makes the reduced system nonsingular (anchoring a transient state
    # would demand pi = 1 on a state whose stationary mass is zero).
    anchor_original = int(np.flatnonzero(recurrent)[0])
    anchor = int(np.flatnonzero(permutation == anchor_original)[0])
    keep = np.concatenate([np.arange(anchor), np.arange(anchor + 1, n)])

    system = sp.csc_matrix(permuted[keep][:, keep].T)
    anchor_row = np.asarray(permuted[[anchor]].todense()).ravel()
    rhs_base = -anchor_row[keep]

    preconditioner = None
    preconditioner_kind = "none"
    try:
        ilu = spilu(system, drop_tol=1e-3, fill_factor=20)
        preconditioner = LinearOperator(system.shape, ilu.solve)
        preconditioner_kind = "ilu"
    except (RuntimeError, ValueError, MemoryError):
        pass  # proceed unpreconditioned; power fallback still guards us

    iterations = 0

    def count(*_args: Any) -> None:
        nonlocal iterations
        iterations += 1

    x = np.zeros(n - 1)
    residual = float("inf")
    refinements = 0
    for refinements in range(1, max_refinements + 1):
        correction_rhs = rhs_base - system @ x
        try:
            if solver == "gmres":
                delta, _ = gmres(
                    system,
                    correction_rhs,
                    M=preconditioner,
                    rtol=_KRYLOV_RTOL,
                    atol=0.0,
                    restart=_GMRES_RESTART,
                    maxiter=_KRYLOV_MAXITER,
                    callback=count,
                    callback_type="pr_norm",
                )
            else:
                delta, _ = bicgstab(
                    system,
                    correction_rhs,
                    M=preconditioner,
                    rtol=_KRYLOV_RTOL,
                    atol=0.0,
                    maxiter=_KRYLOV_MAXITER * _GMRES_RESTART,
                    callback=count,
                )
        except (RuntimeError, ValueError):
            return None, None
        x = x + delta
        permuted_pi = np.insert(x, anchor, 1.0)
        residual = _normalized_residual(permuted_pi, permuted)
        if residual <= target * scale:
            break
    if not np.isfinite(residual) or residual > tolerance * scale:
        return None, None

    pi = np.empty(n)
    pi[permutation] = permuted_pi
    info = SparseSolveInfo(
        solver=solver,
        n_states=n,
        nnz=int(generator.nnz),
        iterations=iterations,
        refinements=refinements,
        residual=residual,
        tolerance=tolerance * scale,
        preconditioner=preconditioner_kind,
        reordering="rcm",
    )
    return pi, info


def _power_stationary(
    generator: sp.csr_array,
    *,
    scale: float,
    tolerance: float,
    target: float,
    fallback: bool,
) -> tuple[np.ndarray | None, SparseSolveInfo]:
    """Power iteration on the uniformized chain ``P = I + Q/Λ``.

    Λ is padded 5% above max |q_ii| so P has a strictly positive
    diagonal on every non-absorbing state, which makes the iteration
    aperiodic and convergent for any unichain generator.
    """
    n = generator.shape[0]
    diagonal = generator.diagonal()
    rate = 1.05 * max(float(-diagonal.min()), 1e-300)
    step = sp.csr_array(sp.identity(n, format="csr") + generator / rate)

    pi = np.full(n, 1.0 / n)
    residual = _normalized_residual(pi, generator)
    steps = 0
    while steps < _POWER_MAX_STEPS and residual > target * scale:
        for _ in range(_POWER_CHECK_EVERY):
            pi = pi @ step
        total = pi.sum()
        if not np.isfinite(total) or total <= 0.0:
            residual = float("inf")
            break
        pi /= total
        steps += _POWER_CHECK_EVERY
        residual = _normalized_residual(pi, generator)
    info = SparseSolveInfo(
        solver="power",
        n_states=n,
        nnz=int(generator.nnz),
        iterations=steps,
        refinements=0,
        residual=residual,
        tolerance=tolerance * scale,
        reordering="none",
        fallback=fallback,
    )
    if not np.isfinite(residual) or residual > tolerance * scale:
        return None, info
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
