"""Stationary solves and validation helpers for Markov chains.

Every stationary distribution in the package — the dense CTMC route,
the sparse route, the MRGP embedded chain and the sensitivity system —
comes out of one anchored formulation, :func:`stationary_solve`:

1. **Recurrent class.** :func:`recurrent_states` finds the unique
   terminal class ``R`` (or raises); transient states get π = 0
   exactly, and the rest of the solve sees only ``Q_RR``, which is a
   generator in its own right because no rate leaves ``R``.
2. **Anchor.** One state ``a`` of ``R`` is pinned at unnormalized mass
   1: its balance equation (implied by the others through ``Q·1 = 0``)
   is dropped, which leaves the nonsingular system
   ``x_B Q_BB = −Q_aB`` over the other states ``B``.  ``Q_BBᵀ`` is
   column diagonally dominant, so partial pivoting keeps the diagonal
   and the LU is a subtraction-light elimination on an M-matrix —
   accurate entry by entry even where π spans hundreds of decades.
3. **Factor once, solve, normalize.**

The factorization is chosen by one structural estimate, the fill
``2 × envelope`` of the reverse Cuthill–McKee ordered pattern (see
:func:`fill_estimate`): dense LAPACK LU for small systems,
SuperLU (minimum-degree order) up to :data:`FILL_BUDGET`, and ILU-
preconditioned GMRES in the RCM order with the same anchor above it.

The anchor starts at the state with the smallest exit rate; a solve
whose largest entry exceeds :data:`_ANCHOR_SPREAD` × the anchor's is
repeated once, anchored at that largest entry, because the LU's
relative error grows with the spread between the anchor and the mass.
Every answer is then validated by its residual ‖πQ‖∞ / Σπ against
``1e-8 × max(1, |Q|max)``.  A direct solve that fails it (a very
light anchor can cancel a pivot to zero) falls back to ILU-GMRES, then
to power iteration, and the LU is repeated at the heaviest state the
fallback found; a chain on which every route fails raises
:class:`~repro.errors.SolverError` — never a silently wrong π.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Any

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee
from scipy.sparse.linalg import LinearOperator, gmres, spilu, splu

from repro.errors import ParameterError, SolverError
from repro.obs import counter, histogram, span

#: Stationary solve methods: ``"auto"`` chooses the factorization by
#: fill; ``"gmres"`` and ``"power"`` force the iterative routes.
SOLVERS = ("auto", "gmres", "power")

#: Acceptance bar for the normalized residual, relative to max(1, |Q|max).
_RESIDUAL_TOLERANCE = 1e-8
#: The iterative routes keep refining until this residual (same scale).
_TARGET_TOLERANCE = 1e-12
#: Entries below ``-_NEGATIVE_TOLERANCE × scale`` mean a failed solve.
_NEGATIVE_TOLERANCE = 1e-7

#: Systems with at most this many states are factored densely by LAPACK.
_DENSE_STATES = 200
#: Largest fill estimate factored exactly by SuperLU; above it the
#: solve is ILU-preconditioned GMRES.  The no-rejuvenation perception
#: chains up to N=64 estimate ≤ 2e5, the N=20 fleet net 3e6.
FILL_BUDGET = 1_000_000
#: Fill-reducing order each LU applies.
_LU_REORDERING = {"lapack": "none", "superlu": "mmd"}
#: Re-anchor when the solution's largest entry exceeds the anchor's
#: (pinned at 1) by more than this factor.
_ANCHOR_SPREAD = 1e3

#: ILU-GMRES settings.  The Krylov rtol is deliberately modest:
#: convergence is judged on the measured ‖πQ‖∞ between refinement
#: passes, not on the (often unattainable) Krylov residual.
_KRYLOV_RTOL = 1e-8
_GMRES_RESTART = 30
_GMRES_MAXITER = 10
_MAX_REFINEMENTS = 8
_POWER_CHECK_EVERY = 50
_POWER_MAX_STEPS = 200_000


@dataclass(frozen=True)
class SparseSolveInfo:
    """Provenance of one stationary solve.

    Travels with the solution into certificates and the run manifest so
    every result can be audited: which factorization produced it, the
    fill estimate that chose it, how hard an iterative route worked and
    what residual the solution achieved.
    """

    solver: str  # "direct" | "gmres" | "power"
    n_states: int
    nnz: int
    iterations: int
    refinements: int
    residual: float  # achieved ‖πQ‖∞ / Σπ (pre-normalization)
    tolerance: float  # acceptance bar the residual was held to
    preconditioner: str = "none"  # "ilu" | "none"
    reordering: str = "none"  # "mmd" | "rcm" | "none"
    fallback: bool = False  # True when a route fell back to another
    factorization: str = "lapack"  # "lapack" | "superlu" | "ilu-gmres" | "power"
    fill: int = 0  # the structural fill estimate of the recurrent class

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
            "factorization": self.factorization,
            "fill": self.fill,
        }


def normalize_distribution(vector: np.ndarray, *, what: str) -> np.ndarray:
    """Clip round-off negatives to zero and renormalize to sum 1.

    Positive entries are kept however small: Eq. 1 weighs rewards by π,
    and on the large no-rejuvenation chains E[R] lives in entries far
    below 1e-10.  "Significantly negative" is judged relative to the
    vector's magnitude (solvers hand in unnormalized vectors), so an
    entry at round-off level of the largest component is noise, not a
    solver failure.

    Raises
    ------
    SolverError
        If the vector has significantly negative entries or a
        non-positive sum — both indicate a solver failure upstream.
    """
    scale = max(1.0, float(np.abs(vector).max()))
    if np.any(vector < -_NEGATIVE_TOLERANCE * scale):
        raise SolverError(
            f"{what} has negative entries (min {vector.min():.3e}); "
            "the model or solver is inconsistent"
        )
    clipped = np.maximum(vector, 0.0)
    total = clipped.sum()
    if not total > 0.0:
        raise SolverError(f"{what} sums to {total}; cannot normalize")
    return clipped / total


def recurrent_states(generator: Any, *, what: str) -> np.ndarray:
    """Boolean mask of the unique terminal (recurrent) class of ``generator``.

    Decomposes the positive-rate transition structure (dense or any
    scipy.sparse format) into strongly connected components and demands
    exactly one *terminal* class (no edge leaving it).  A chain with
    several terminal classes has no unique stationary distribution, and
    every stationary route raises the same error text on it.
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


def fill_estimate(generator: sp.csr_array) -> tuple[int, np.ndarray]:
    """``(fill, order)``: the structural LU fill estimate and its RCM order.

    ``order`` is the reverse Cuthill–McKee permutation of the
    symmetrized pattern; ``fill`` is twice its envelope (the lower
    profile, mirrored for ``U``), which bounds the nonzeros of an LU
    without pivoting in that order.
    """
    n = generator.shape[0]
    pattern = sp.csr_matrix(
        (np.ones(generator.nnz), generator.indices, generator.indptr), shape=(n, n)
    )
    # the identity keeps an absorbing state's empty row out of reduceat
    symmetric = sp.csr_matrix(pattern + pattern.T + sp.identity(n, format="csr"))
    order = np.asarray(reverse_cuthill_mckee(symmetric, symmetric_mode=True))
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    first = np.minimum.reduceat(position[symmetric.indices], symmetric.indptr[:-1])
    envelope = int((position - first).sum())
    return 2 * envelope, order


def choose_factorization(n: int, fill: int) -> str:
    """``"lapack"``, ``"superlu"`` or ``"ilu-gmres"`` for an ``n``-state system."""
    if n <= _DENSE_STATES:
        return "lapack"
    return "superlu" if fill <= FILL_BUDGET else "ilu-gmres"


def stationary_solve(
    generator: Any,
    *,
    what: str,
    solver: str = "auto",
) -> tuple[np.ndarray, SparseSolveInfo]:
    """Solve ``πQ = 0``, ``Σπ = 1`` for a generator (dense or sparse).

    ``generator`` must be validated by the caller; ``solver`` is one of
    :data:`SOLVERS`.  Returns the normalized π and its
    :class:`SparseSolveInfo`.

    Raises
    ------
    SolverError
        If the chain has no unique stationary distribution or no route
        reaches the acceptance residual.
    """
    if solver not in SOLVERS:
        raise ParameterError(
            f"unknown sparse solver {solver!r}; "
            f"valid solvers: {', '.join(sorted(SOLVERS))}"
        )
    q = sp.csr_array(generator)
    n = q.shape[0]
    if q.shape != (n, n):
        raise SolverError(f"{what}: generator must be square, got {q.shape}")
    if n == 0:
        raise SolverError(f"{what}: generator is empty")
    scale = max(1.0, float(np.abs(q.data).max()) if q.nnz else 0.0)
    bar = _RESIDUAL_TOLERANCE * scale
    recurrent = np.flatnonzero(recurrent_states(q, what=what))
    if recurrent.size < n:
        q_rr = sp.csr_array(q[recurrent][:, recurrent])
    else:
        q_rr = q
    record = {"n_states": n, "nnz": int(q.nnz), "tolerance": bar}

    if recurrent.size == 1:
        x, info = np.ones(1), SparseSolveInfo(
            solver="direct", iterations=0, refinements=0, residual=0.0, **record
        )
    else:
        x, info = _solve_recurrent(q_rr, solver, bar, _TARGET_TOLERANCE * scale, record)
        if not info.residual <= bar:
            raise SolverError(
                f"{what}: stationary solve residual {info.residual:.3e} too "
                "large; the chain may be reducible with multiple recurrent "
                "classes"
            )
    pi = np.zeros(n)
    pi[recurrent] = normalize_distribution(x, what=what)
    return pi, info


def _solve_recurrent(
    q_rr: sp.csr_array,
    solver: str,
    bar: float,
    target: float,
    record: dict[str, Any],
) -> tuple[np.ndarray, SparseSolveInfo]:
    """The anchored solve of one recurrent class, with its fallbacks.

    Returns the unnormalized ``x`` and its record; the caller rejects a
    record whose residual misses ``bar``.
    """
    fill, order = fill_estimate(q_rr)
    factorization = {"gmres": "ilu-gmres", "power": "power"}.get(solver)
    if factorization is None:
        factorization = choose_factorization(q_rr.shape[0], fill)
    record = {**record, "fill": fill}
    anchor = int(np.argmax(q_rr.diagonal()))  # the smallest exit rate
    direct = _direct_solver(q_rr, order, factorization)
    if direct is not None:
        x = direct(anchor)
        if np.all(np.isfinite(x)) and x.max() > _ANCHOR_SPREAD:
            anchor = int(np.argmax(x))
            x = direct(anchor)
        residual = _normalized_residual(x, q_rr)
        if residual <= bar:
            return x, SparseSolveInfo(
                solver="direct",
                iterations=0,
                refinements=0,
                residual=residual,
                reordering=_LU_REORDERING[factorization],
                factorization=factorization,
                **record,
            )
    info = None
    if factorization != "power":
        x, info = _krylov(q_rr, order, anchor, bar, target, record)
    if info is None:
        x, info = _power(q_rr, bar, target, record)
    if direct is not None and info.residual <= bar:
        # the LU broke down, typically because a light anchor cancelled a
        # pivot to zero: factor again at the heaviest state found instead
        retry = direct(int(np.argmax(x)))
        residual = _normalized_residual(retry, q_rr)
        if residual <= bar:
            x, info = retry, replace(
                info,
                solver="direct",
                residual=residual,
                preconditioner="none",
                reordering=_LU_REORDERING[factorization],
                factorization=factorization,
            )
    fallback = direct is not None or info.factorization != factorization
    return x, replace(info, fallback=fallback)


def _normalized_residual(x: np.ndarray, generator: sp.csr_array) -> float:
    """‖xQ‖∞ / Σx — the acceptance criterion of every route (NaN-safe)."""
    total = float(x.sum())
    if not total > 0.0:
        return float("inf")
    residual = float(np.abs(x @ generator).max()) / total
    return residual if np.isfinite(residual) else float("inf")


def _direct_solver(
    q_rr: sp.csr_array, order: np.ndarray, factorization: str
) -> Callable[..., np.ndarray] | None:
    """``solve(anchor, rhs=None)`` by one LU of the anchored system.

    ``solve`` returns ``x`` with ``x[anchor] = 1`` and ``x Q = rhs``
    (default 0) on every other state's balance equation; a zero pivot
    yields a non-finite ``x``, which the callers reject.  ``None`` for
    the iterative factorizations.
    """
    if factorization == "superlu":
        return lambda anchor, rhs=None: _superlu_solve(q_rr, order, anchor, rhs)
    if factorization != "lapack":
        return None
    dense = q_rr.toarray()
    return lambda anchor, rhs=None: _lapack_solve(dense, anchor, rhs)


def _lapack_solve(
    dense: np.ndarray, anchor: int, rhs: np.ndarray | None
) -> np.ndarray:
    """LAPACK LU of ``Q_BBᵀ`` (column dominant: the diagonal pivots)."""
    others = np.flatnonzero(np.arange(dense.shape[0]) != anchor)
    system = dense[np.ix_(others, others)].T  # Fortran-ordered, factored in place
    target = -dense[anchor, others]
    if rhs is not None:
        target += rhs[others]
    x = np.ones(dense.shape[0])
    lu, pivots, info = dgetrf(system, overwrite_a=True)
    if info > 0:  # an exactly zero pivot
        x[others] = np.nan
    else:
        x[others] = dgetrs(lu, pivots, target)[0]
    return x


def _reduced_system(
    generator: sp.csr_array, order: np.ndarray, anchor: int
) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
    """``(A, b, states)``: ``A = Q_BBᵀ`` in RCM order (CSC), ``b = −Q_aB``.

    ``states[k]`` is the original index of unknown ``k``.
    """
    n = generator.shape[0]
    states = order[order != anchor]
    position = np.full(n, -1, dtype=np.int64)
    position[states] = np.arange(n - 1)
    coo = generator.tocoo()
    rows, cols = position[coo.row], position[coo.col]
    keep = (rows >= 0) & (cols >= 0)
    system = sp.csc_matrix(
        (coo.data[keep], (cols[keep], rows[keep])), shape=(n - 1, n - 1)
    )
    rhs = np.zeros(n - 1)
    from_anchor = (coo.row == anchor) & (cols >= 0)
    rhs[cols[from_anchor]] = -coo.data[from_anchor]
    return system, rhs, states


def _superlu_solve(
    q_rr: sp.csr_array, order: np.ndarray, anchor: int, rhs: np.ndarray | None
) -> np.ndarray:
    """SuperLU of ``Q_BBᵀ`` with diagonal pivots.

    The minimum-degree ordering of ``Aᵀ + A`` is applied to rows and
    columns alike, which keeps ``Q_BBᵀ`` column diagonally dominant, so
    the diagonal pivots are the ones partial pivoting would choose.
    """
    system, target, states = _reduced_system(q_rr, order, anchor)
    if rhs is not None:
        target += rhs[states]
    x = np.ones(q_rr.shape[0])
    try:
        factors = splu(
            system,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        x[states] = factors.solve(target)
    except RuntimeError:  # "Factor is exactly singular"
        x[states] = np.nan
    return x


def _krylov(
    q_rr: sp.csr_array,
    order: np.ndarray,
    anchor: int,
    bar: float,
    target: float,
    record: dict[str, Any],
) -> tuple[np.ndarray | None, SparseSolveInfo | None]:
    """ILU-preconditioned GMRES on the anchored system, with refinement.

    Each pass solves for the correction of the true residual; the loop
    stops at ``target`` and the answer is accepted at ``bar``.  Returns
    ``(None, None)`` when it is not reached (the caller falls back).
    """
    system, rhs, states = _reduced_system(q_rr, order, anchor)
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

    solution = np.zeros(rhs.size)
    x = np.ones(q_rr.shape[0])
    residual = float("inf")
    refinements = 0
    for refinements in range(1, _MAX_REFINEMENTS + 1):
        try:
            with np.errstate(all="ignore"):  # a light anchor can overflow
                delta, _ = gmres(
                    system,
                    rhs - system @ solution,
                    M=preconditioner,
                    rtol=_KRYLOV_RTOL,
                    atol=0.0,
                    restart=_GMRES_RESTART,
                    maxiter=_GMRES_MAXITER,
                    callback=count,
                    callback_type="pr_norm",
                )
        except (RuntimeError, ValueError):
            return None, None
        solution = solution + delta
        x[states] = solution
        residual = _normalized_residual(x, q_rr)
        if residual <= target:
            break
    if not residual <= bar:
        return None, None
    return x, SparseSolveInfo(
        solver="gmres",
        iterations=iterations,
        refinements=refinements,
        residual=residual,
        preconditioner=preconditioner_kind,
        reordering="rcm",
        factorization="ilu-gmres",
        **record,
    )


def _power(
    q_rr: sp.csr_array, bar: float, target: float, record: dict[str, Any]
) -> tuple[np.ndarray, SparseSolveInfo]:
    """Power iteration on the uniformized chain ``P = I + Q/Λ``.

    Λ is padded 5% above max |q_ii| so P has a strictly positive
    diagonal, which makes the iteration aperiodic and convergent on an
    irreducible class.
    """
    n = q_rr.shape[0]
    rate = 1.05 * max(float(-q_rr.diagonal().min()), 1e-300)
    step = sp.csr_array(sp.identity(n, format="csr") + q_rr / rate)
    x = np.full(n, 1.0 / n)
    residual = _normalized_residual(x, q_rr)
    steps = 0
    while steps < _POWER_MAX_STEPS and residual > target:
        for _ in range(_POWER_CHECK_EVERY):
            x = x @ step
        total = x.sum()
        if not (np.isfinite(total) and total > 0.0):
            residual = float("inf")
            break
        x /= total
        steps += _POWER_CHECK_EVERY
        residual = _normalized_residual(x, q_rr)
    return x, SparseSolveInfo(
        solver="power",
        iterations=steps,
        refinements=0,
        residual=residual,
        factorization="power",
        **record,
    )


def solve_stationary(matrix: np.ndarray, *, what: str) -> np.ndarray:
    """Solve ``pi @ matrix = 0`` (CTMC) with ``sum(pi) = 1``.

    ``matrix`` must be a generator (rows summing to zero).  The dense
    entry point to :func:`stationary_solve`, traced as
    ``markov.linear_solve``.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise SolverError(f"{what}: generator must be square, got {matrix.shape}")
    with span("markov.linear_solve", size=n) as sp_span:
        pi, info = stationary_solve(matrix, what=what)
        counter("markov.linear_solves").inc()
        histogram("markov.linear_residual").observe(info.residual)
        sp_span.set(
            residual=info.residual,
            factorization=info.factorization,
            fill=info.fill,
        )
        return pi


def solve_stationary_stochastic(matrix: np.ndarray, *, what: str) -> np.ndarray:
    """Solve ``pi @ P = pi`` (DTMC) with ``sum(pi) = 1``.

    Solved as the generator ``P − I`` with its diagonal rebuilt as minus
    the off-diagonal row sums: ``p_ii − 1`` cancels when ``p_ii`` is
    near 1, and the rebuilt exit probabilities keep the LU accurate
    entry by entry.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise SolverError(f"{what}: matrix must be square, got {matrix.shape}")
    generator = np.array(matrix, dtype=float)
    np.fill_diagonal(generator, 0.0)
    np.fill_diagonal(generator, -generator.sum(axis=1))
    return solve_stationary(generator, what=what)


def solve_anchored(generator: np.ndarray, rhs: np.ndarray, anchor: int) -> np.ndarray:
    """A solution of ``x Q = rhs`` with ``x[anchor] = 1``, by one anchored LU.

    ``Q`` must have a unique recurrent class containing ``anchor`` and
    ``rhs`` must be consistent (``rhs · 1 = 0``); the general solution
    adds multiples of π.  The factorization follows :func:`choose_factorization`,
    with SuperLU standing in for ILU-GMRES.
    """
    q = sp.csr_array(generator)
    if q.shape[0] == 1:
        return np.ones(1)
    fill, order = fill_estimate(q)
    factorization = choose_factorization(q.shape[0], fill)
    if factorization == "ilu-gmres":
        factorization = "superlu"
    return _direct_solver(q, order, factorization)(anchor, rhs)


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
