"""Exact stationary-distribution sensitivities for CTMCs.

For an irreducible CTMC with generator ``Q(θ)`` and stationary
distribution ``π(θ)``, differentiating ``π Q = 0`` and ``π·1 = 1`` gives
the linear system

    (dπ/dθ) Q = -π (dQ/dθ),      (dπ/dθ)·1 = 0

whose solution is exact (no finite differences).  From it the derivative
of any stationary expected reward ``E[R] = π r`` follows as
``dE[R]/dθ = (dπ/dθ) r``.

This is the classical approach of Blake, Reibman & Trivedi for Markov
reward sensitivity, used here to rank the perception-model parameters
exactly where the finite-difference elasticities of
:mod:`repro.analysis.sensitivity` approximate.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.errors import SolverError
from repro.markov.ctmc import CTMC
from repro.markov.linear import solve_anchored


def stationary_derivative(chain: CTMC, generator_derivative: Any) -> np.ndarray:
    """The derivative ``dπ/dθ`` given ``dQ/dθ``.

    Parameters
    ----------
    chain:
        A CTMC with a unique stationary distribution (its stationary
        distribution is computed or reused from cache).
    generator_derivative:
        ``dQ/dθ``, the element-wise derivative of the generator with
        respect to the parameter, dense or scipy.sparse (held as CSR).
        Rows must sum to zero (a perturbed generator is still a
        generator).

    Raises
    ------
    SolverError
        If shapes mismatch, the derivative rows do not sum to zero, or
        the chain has several recurrent classes (no unique stationary
        distribution, so the sensitivity system is singular).
    """
    n = chain.n_states
    derivative = sp.csr_array(generator_derivative, dtype=float)
    if derivative.shape != (n, n):
        raise SolverError(
            f"dQ/dtheta has shape {derivative.shape}, expected {(n, n)}"
        )
    row_sums = np.abs(derivative.sum(axis=1))
    scale = max(1.0, np.abs(derivative.data).max(initial=0.0))
    if np.any(row_sums > 1e-9 * scale):
        raise SolverError("dQ/dtheta rows must sum to zero")

    pi = chain.stationary_distribution()
    # a particular solution of x Q = -pi dQ anchored at the heaviest state
    # (reachable from every state: the stationary solve above has checked
    # that pi is unique), shifted by a multiple of pi to sum to zero
    rhs = -(pi @ derivative)
    particular = solve_anchored(chain.generator, rhs, int(np.argmax(pi)))
    solution = particular - particular.sum() * pi
    residual = max(
        float(np.abs(solution @ chain.generator - rhs).max()),
        abs(float(solution.sum())),
    )
    if not residual <= 1e-8 * max(1.0, np.abs(chain.generator.data).max(initial=0.0)):
        raise SolverError(f"sensitivity solve residual too large ({residual:.3e})")
    return solution


def reward_derivative(
    chain: CTMC,
    rewards: np.ndarray,
    generator_derivative: Any,
) -> float:
    """``d(π r)/dθ`` for a state reward vector ``r``."""
    rewards = np.asarray(rewards, dtype=float)
    if rewards.shape != (chain.n_states,):
        raise SolverError(
            f"reward vector has shape {rewards.shape}, expected ({chain.n_states},)"
        )
    return float(stationary_derivative(chain, generator_derivative) @ rewards)


def rate_elasticity(
    chain: CTMC,
    rewards: np.ndarray,
    generator_derivative: Any,
    rate: float,
) -> float:
    """Normalized sensitivity ``(θ / E[R]) · dE[R]/dθ`` of a rate θ."""
    if rate <= 0:
        raise SolverError(f"rate must be > 0, got {rate}")
    expected = chain.expected_reward(rewards)
    if expected == 0.0:
        raise SolverError("expected reward is zero; elasticity undefined")
    return reward_derivative(chain, rewards, generator_derivative) * rate / expected
