"""First-passage analysis for CTMCs.

Answers "how long until the chain first enters a target set?" — in the
perception domain, the mean time until the voter first loses its
``2f+1`` quorum.  The hitting-time system is ill-conditioned there (a
condition number near 1e17 at N=20), so :func:`mean_hitting_times`
solves it by a subtraction-free state reduction in the style of
Grassmann–Taksar–Heyman rather than an LU: each hitting time comes out
accurate to a few units of roundoff (docs/SOLVERS.md).  Hitting
probabilities over a finite horizon come from uniformization with the
target rows zeroed.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np
import scipy.sparse as sp

from repro.errors import SolverError
from repro.markov.sparse import transient_distribution_sparse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.markov.ctmc import CTMC


def _target_mask(chain: CTMC, targets: Sequence[Any]) -> np.ndarray:
    mask = np.zeros(chain.n_states, dtype=bool)
    mask[[chain.index_of(state) for state in targets]] = True
    if not mask.any():
        raise SolverError("target set must not be empty")
    if mask.all():
        raise SolverError("target set must not cover every state")
    return mask


def _eliminate(rates: np.ndarray, exits: np.ndarray) -> np.ndarray:
    """Mean hitting times of the chain with off-diagonal ``rates``.

    ``rates[i, j]`` (i ≠ j) is the rate from transient state ``i`` to
    ``j`` and ``exits[i]`` the rate from ``i`` into the target set; both
    are consumed.  Eliminating ``k`` (last to first) folds every path
    ``i → k → j`` into ``rates[i, j]``, ``i → k → target`` into
    ``exits[i]`` and ``k``'s sojourn into ``times[i]``, each by adding
    non-negative products; each pivot is a sum of non-negative rates.
    Back substitution then runs first to last.
    """
    n = len(exits)
    times = np.ones(n)  # right-hand sides of pivot_i m_i = times_i + Σ_j rates_ij m_j
    pivots = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):  # judged once, below
        for k in range(n - 1, -1, -1):
            row = rates[k, :k]
            pivot = row.sum() + exits[k]  # exit rate of k among the survivors
            if not pivot > 0.0:
                raise SolverError(
                    "some state cannot reach the target set (infinite hitting time)"
                )
            pivots[k] = pivot
            into = rates[:k, k] / pivot
            # self-loops i → k → i land on the diagonal, which is never read
            rates[:k, :k] += np.outer(into, row)
            exits[:k] += into * exits[k]
            times[:k] += into * times[k]
        for k in range(n):
            times[k] = (times[k] + rates[k, :k] @ times[:k]) / pivots[k]
    if not np.all(np.isfinite(times)):
        raise SolverError("hitting times overflow the floating-point range")
    return times


def mean_hitting_times(chain: CTMC, targets: Sequence[Any]) -> dict[Any, float]:
    """Expected time to first reach ``targets`` from every other state.

    The reduction runs on a dense working copy of the transient block
    (``O(t²)`` memory, ``O(t³/3)`` flops for ``t`` transient states) and
    reads only its off-diagonal rates.

    Raises
    ------
    SolverError
        If some state cannot reach the target set (its hitting time is
        infinite), or a time overflows.
    """
    mask = _target_mask(chain, targets)
    transient = np.flatnonzero(~mask)
    rows = chain.generator[transient]
    exits = np.asarray(rows[:, mask].sum(axis=1), dtype=float)
    times = _eliminate(rows[:, transient].toarray(), exits)  # its diagonal is unread
    return {chain.states[i]: float(t) for i, t in zip(transient, times)}


def mean_time_to_hit(
    chain: CTMC,
    targets: Sequence[Any],
    initial: Sequence[float] | np.ndarray,
) -> float:
    """Expected hitting time from an initial distribution.

    Mass already on the target set contributes zero.
    """
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (chain.n_states,):
        raise SolverError(
            f"initial distribution has shape {initial.shape}, expected "
            f"({chain.n_states},)"
        )
    times = mean_hitting_times(chain, targets)
    return float(
        sum(
            initial[i] * times.get(state, 0.0)
            for i, state in enumerate(chain.states)
        )
    )


def hitting_probability_by(
    chain: CTMC,
    targets: Sequence[Any],
    initial: Sequence[float] | np.ndarray,
    horizon: float,
) -> float:
    """P(target set reached within ``horizon``) from ``initial``.

    Computed on the CSR chain with the target rows zeroed, so the
    targets are absorbing.
    """
    if horizon < 0:
        raise SolverError(f"horizon must be >= 0, got {horizon}")
    mask = _target_mask(chain, targets)
    absorbed = sp.csr_array(sp.diags_array((~mask).astype(float)) @ chain.generator)
    initial = np.asarray(initial, dtype=float)
    distribution = transient_distribution_sparse(
        absorbed, initial, horizon, what="absorbing transient generator"
    )
    return float(distribution[mask].sum())


def mean_time_to_predicate(
    chain: CTMC,
    predicate: Callable[[Any], bool],
    initial: Sequence[float] | np.ndarray,
) -> float:
    """Convenience wrapper: hitting time of ``{s : predicate(s)}``."""
    targets = [state for state in chain.states if predicate(state)]
    return mean_time_to_hit(chain, targets, initial)
