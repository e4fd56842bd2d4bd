"""∂E[R]/∂(every timed edge value) of a solved net, from one adjoint solve.

``E[R] = π · r`` depends on ``graph.values``: the rate of every
exponential edge and the delay of every deterministic one.
:func:`reward_gradient` differentiates it with respect to all of them
at once, on the route that produced π (docs/SOLVERS.md, "Gradients
from one adjoint solve", derives the identities):

* CSR: with ``Q h = r − E·1``, ``∂E/∂v_e = −Σ_p π_s prob_p (h_t − h_s)``
  over the successor pairs ``p = (s → t)`` of edge ``e``;
* MRGP: with ``w = (r − E·1)/c`` and ``(K − I) g = −U w``,
  ``dE = φ dK g + φ dU w``, where each deterministic group's ``dK`` and
  ``dU`` come back through one augmented ``expm_and_integral`` of
  ``[[Sᵀ, SᵀA + B], [0, Sᵀ]]``.
"""

from __future__ import annotations

import numpy as np

from repro.dspn.mrgp_builder import PROBABILITY_TOLERANCE, assemble_kernels
from repro.dspn.sparse_builder import sparse_generator
from repro.dspn.steady_state import SteadyStateResult
from repro.errors import SolverError
from repro.markov.linear import solve_poisson, stochastic_generator
from repro.markov.mrgp import solve_mrgp
from repro.markov.uniformization import expm_and_integral
from repro.obs import span
from repro.statespace.graph import TangibleGraph


def reward_gradient(solution: SteadyStateResult, rewards: np.ndarray) -> np.ndarray:
    """``∂(π·r)/∂v`` for every value ``v`` of ``solution.graph.values``.

    ``rewards`` is the reward vector over ``solution.markings``; the
    route is the one that produced ``solution`` (the MRGP kernels are
    rebuilt from the graph).  Raises :class:`SolverError` on a reward
    vector of the wrong length or a zero pivot in the Poisson solve.
    """
    graph = solution.graph
    rewards = np.asarray(rewards, dtype=float)
    if rewards.shape != (graph.n_states,):
        raise SolverError(
            f"reward vector has shape {rewards.shape}, expected ({graph.n_states},)"
        )
    with span("dspn.gradient", states=graph.n_states, method=solution.method):
        if solution.method == "mrgp":
            return _mrgp_gradient(graph, rewards)
        return _ctmc_gradient(graph, np.asarray(solution.pi), rewards)


def _ctmc_gradient(
    graph: TangibleGraph, pi: np.ndarray, rewards: np.ndarray
) -> np.ndarray:
    structure = graph.structure
    centered = rewards - float(pi @ rewards)
    h = solve_poisson(sparse_generator(graph), centered, pi, what="reward gradient")
    source, target = structure.pair_source, structure.target
    flows = -pi[source] * structure.probability * (h[target] - h[source])
    return np.bincount(structure.target_edge, weights=flows, minlength=graph.values.size)


def _mrgp_gradient(graph: TangibleGraph, rewards: np.ndarray) -> np.ndarray:
    structure = graph.structure
    kernels = assemble_kernels(graph)
    kernel, sojourn = kernels.kernel, kernels.sojourn
    renewal = solve_mrgp(kernel, sojourn)
    phi = renewal.phi
    w = (rewards - float(renewal.pi @ rewards)) / renewal.expected_cycle_length
    g = solve_poisson(
        stochastic_generator(kernel), -(sojourn @ w), phi, what="reward gradient"
    )
    gradient = np.zeros(graph.values.size)

    # The solve rebuilds K's diagonal from the off-diagonal entries, so
    # dK's rows sum to zero and each row reads g relative to its own g_s;
    # that keeps the result blind to the constant g is defined up to.
    # Free markings: K_st = Σ_e v_e prob / total_s and U_ss = 1 / total_s.
    total, free = kernels.exit_rates, ~kernels.armed
    drift = kernel @ g - kernel.sum(axis=1) * g  # Σ_t K_st (g_t − g_s)
    source, target = structure.pair_source, structure.target
    pairs = ~structure.pair_deterministic & free[source] & (total[source] > 0.0)
    s, t = source[pairs], target[pairs]
    np.add.at(
        gradient,
        structure.target_edge[pairs],
        structure.probability[pairs]
        * phi[s]
        * (g[t] - g[s] - drift[s] - w[s] / total[s])
        / total[s],
    )

    for group, at_delay, integral in kernels.groups:
        rows, exits, subgenerator = group.rows, group.exits, group.subgenerator
        m = rows.size
        weight = phi[rows]
        exit_rates = group.rates[:, exits]
        # g relative to each member's own value, as in the free markings
        own = g[rows][:, None]
        seed_fired = np.where(
            at_delay > PROBABILITY_TOLERANCE,
            weight[:, None] * ((group.routing @ g)[None, :] - own),
            0.0,
        )
        seed_left = np.where(
            integral @ exit_rates > PROBABILITY_TOLERANCE,
            weight[:, None] * (g[exits][None, :] - own),
            0.0,
        )
        seed_sojourn = np.outer(weight, w[rows]) + seed_left @ exit_rates.T
        augmented = np.block(
            [
                [subgenerator.T, subgenerator.T @ seed_fired + seed_sojourn],
                [np.zeros((m, m)), subgenerator.T],
            ]
        )
        by_subgenerator = seed_fired @ integral.T
        by_subgenerator += expm_and_integral(augmented, group.delay)[1][:m, m:]

        # S = rates[:, rows] − diag(rates · 1), X = rates[:, exits]
        by_rate = np.zeros_like(group.rates)
        by_rate[:, rows] = by_subgenerator
        by_rate[:, exits] = integral.T @ seed_left
        by_rate -= np.diag(by_subgenerator)[:, None]
        moving = group.moving
        np.add.at(
            gradient,
            structure.target_edge[moving],
            structure.probability[moving] * by_rate[group.moving_rows, target[moving]],
        )
        gradient[group.edges] += (
            seed_fired * (subgenerator @ at_delay) + seed_sojourn * at_delay
        ).sum(axis=1)
    return gradient
