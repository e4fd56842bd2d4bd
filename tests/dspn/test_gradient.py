"""The adjoint reward gradient against forward references and full re-solves.

Two test-local forward references differentiate E[R] along one
direction of the edge values, one solve per direction:

* on the CSR route, ``dπ Q = −π dQ`` with ``dπ · 1 = 0`` (the forward
  sensitivity system of Blake, Reibman & Trivedi);
* on the MRGP route, the same system on the embedded chain with the
  kernel derivative built forward: each group's ``de^{Sτ}`` and
  ``d∫e^{Ss}`` are the upper-right blocks of the exponential pair of
  ``[[S, dS], [0, S]]`` (the Fréchet derivative), plus ``S e^{Sτ} dτ``
  and ``e^{Sτ} dτ`` for a delay.

:func:`repro.analysis.sensitivity.elasticities` is held to them at
1e-10 relative, and to central differences of full solves.
"""

import numpy as np
import pytest

from repro.analysis.sensitivity import elasticities
from repro.dspn import solve_steady_state
from repro.dspn.gradient import reward_gradient
from repro.dspn.mrgp_builder import (
    PROBABILITY_TOLERANCE,
    assemble_kernels,
    deterministic_group,
)
from repro.dspn.sparse_builder import sparse_generator
from repro.markov.linear import stochastic_generator
from repro.markov.mrgp import solve_mrgp
from repro.markov.uniformization import expm_and_integral
from repro.perception.evaluation import (
    TIME_TRANSITIONS,
    build_net,
    default_reliability_function,
    evaluate,
    reliability_rewards,
)
from repro.perception.parameters import PerceptionParameters
from repro.perception.statemap import state_counts
from repro.statespace.graph import TangibleGraph

TIME_PARAMETERS = tuple(TIME_TRANSITIONS)


def stationary_derivative(generator, pi, derivative):
    """``dπ`` with ``dπ Q = −π dQ`` and ``dπ · 1 = 0``, by a dense solve.

    The heaviest state's balance equation (implied by the others) is
    replaced by the normalization.
    """
    generator = np.asarray(generator.toarray() if hasattr(generator, "toarray") else generator)
    derivative = np.asarray(
        derivative.toarray() if hasattr(derivative, "toarray") else derivative
    )
    anchor = int(np.argmax(pi))
    system = generator.copy()
    system[:, anchor] = 1.0
    rhs = -(pi @ derivative)
    rhs[anchor] = 0.0
    return np.linalg.solve(system.T, rhs)


def kernel_derivative(graph, kernels, direction):
    """``(dK, dU)`` along ``direction`` of the edge values, built forward."""
    structure = graph.structure
    n = graph.n_states
    moved = TangibleGraph(structure, direction)
    d_kernel, d_sojourn = np.zeros((n, n)), np.zeros((n, n))

    total, free = kernels.exit_rates, ~kernels.armed
    exponential = ~structure.edge_deterministic
    d_total = np.bincount(
        structure.edge_source[exponential], weights=direction[exponential], minlength=n
    )
    live = np.flatnonzero(free & (total > 0.0))
    d_sojourn[live, live] = -d_total[live] / total[live] ** 2
    source = structure.pair_source
    pairs = np.flatnonzero(~structure.pair_deterministic & free[source] & (total[source] > 0.0))
    for pair in pairs.tolist():
        s, t = source[pair], structure.target[pair]
        edge = structure.target_edge[pair]
        d_kernel[s, t] += direction[edge] * structure.probability[pair] / total[s]
    d_kernel[live] -= kernels.kernel[live] * (d_total[live] / total[live])[:, None]

    for group, at_delay, integral in kernels.groups:
        rows, exits, targets = group.rows, group.exits, group.targets
        m = rows.size
        step = deterministic_group(moved, group.transition, group.edges)
        subgenerator = group.subgenerator
        pair_exp, pair_int = expm_and_integral(
            np.block([[subgenerator, step.subgenerator], [np.zeros((m, m)), subgenerator]]),
            group.delay,
        )
        d_exp = pair_exp[:m, m:] + subgenerator @ at_delay * step.delay
        d_int = pair_int[:m, m:] + at_delay * step.delay
        d_sojourn[np.ix_(rows, rows)] += d_int
        exit_rates = group.rates[:, exits]
        leaving = integral @ exit_rates
        d_kernel[np.ix_(rows, exits)] += np.where(
            leaving > PROBABILITY_TOLERANCE,
            d_int @ exit_rates + integral @ step.rates[:, exits],
            0.0,
        )
        d_fired = np.where(at_delay > PROBABILITY_TOLERANCE, d_exp, 0.0)
        d_kernel[np.ix_(rows, targets)] += d_fired @ group.routing[:, targets]
    # the solve rebuilds K's diagonal from its off-diagonal entries
    np.fill_diagonal(d_kernel, 0.0)
    np.fill_diagonal(d_kernel, -d_kernel.sum(axis=1))
    return d_kernel, d_sojourn


def forward_derivative(solution, rewards, direction):
    """``dE[R]`` along ``direction`` by one forward solve."""
    graph = solution.graph
    if solution.method == "sparse":
        generator = sparse_generator(graph)
        derivative = sparse_generator(TangibleGraph(graph.structure, direction))
        return stationary_derivative(generator, solution.pi, derivative) @ rewards
    kernels = assemble_kernels(graph)
    renewal = solve_mrgp(kernels.kernel, kernels.sojourn)
    d_kernel, d_sojourn = kernel_derivative(graph, kernels, direction)
    d_phi = stationary_derivative(stochastic_generator(kernels.kernel), renewal.phi, d_kernel)
    centered = rewards - renewal.pi @ rewards
    return (
        (d_phi @ kernels.sojourn + renewal.phi @ d_sojourn)
        @ centered
        / renewal.expected_cycle_length
    )


def eq1_rewards(parameters, solution):
    return reliability_rewards(
        state_counts(solution.markings), default_reliability_function(parameters)
    )


def time_direction(graph, name):
    """``x · dv/dx`` for time parameter ``name``: ∓v on its transition's edges."""
    structure = graph.structure
    chosen = np.asarray(structure.edge_transition) == TIME_TRANSITIONS[name]
    sign = np.where(structure.edge_deterministic, 1.0, -1.0)
    return np.where(chosen, sign * graph.values, 0.0)


CONFIGURATIONS = [
    PerceptionParameters.four_version_defaults(),
    PerceptionParameters.six_version_defaults(),
    PerceptionParameters(n_modules=8, f=1, r=1, rejuvenation=True),
    PerceptionParameters(n_modules=8, f=1, r=2, rejuvenation=True),
    PerceptionParameters(n_modules=10, f=1, r=2, rejuvenation=True),
    PerceptionParameters(n_modules=12, f=1, r=2, rejuvenation=True),
]
IDS = [
    f"n{p.n_modules}-r{p.r}-{'rejuvenation' if p.rejuvenation else 'clockless'}"
    for p in CONFIGURATIONS
]


@pytest.mark.parametrize("parameters", CONFIGURATIONS, ids=IDS)
def test_time_elasticities_match_the_forward_references(parameters):
    solution = solve_steady_state(build_net(parameters), use_cache=False)
    rewards = eq1_rewards(parameters, solution)
    expected = solution.pi @ rewards
    exact = {e.parameter: e.elasticity for e in elasticities(parameters, TIME_PARAMETERS)}
    for name in TIME_PARAMETERS:
        direction = time_direction(solution.graph, name)
        if not direction.any():  # a clockless net has no rejuvenation edges
            assert exact[name] == 0.0
            continue
        reference = forward_derivative(solution, rewards, direction) / expected
        assert exact[name] == pytest.approx(reference, rel=1e-10, abs=1e-16), name


@pytest.mark.parametrize("parameters", CONFIGURATIONS[:3], ids=IDS[:3])
def test_elasticities_match_full_solve_central_differences(parameters):
    names = ("alpha", "p", "p_prime") + TIME_PARAMETERS
    exact = {e.parameter: e.elasticity for e in elasticities(parameters, names)}
    base = evaluate(parameters).expected_reliability
    step = 1e-4
    for name in names:
        value = getattr(parameters, name)
        upper = evaluate(parameters.replace(**{name: value * (1 + step)}))
        lower = evaluate(parameters.replace(**{name: value * (1 - step)}))
        numeric = (
            (upper.expected_reliability - lower.expected_reliability)
            / (2 * step)
            / base
        )
        assert exact[name] == pytest.approx(numeric, rel=1e-6, abs=1e-12), name


@pytest.mark.parametrize("parameters", CONFIGURATIONS[1:3], ids=IDS[1:3])
def test_every_edge_matches_the_forward_reference(parameters):
    """Per edge, not only per parameter: each unit direction, one by one."""
    solution = solve_steady_state(build_net(parameters), use_cache=False)
    rewards = eq1_rewards(parameters, solution)
    gradient = reward_gradient(solution, rewards)
    values = solution.graph.values
    for edge in range(0, values.size, max(1, values.size // 12)):
        direction = np.zeros(values.size)
        direction[edge] = 1.0
        if solution.graph.structure.edge_deterministic[edge]:
            continue  # one member's delay alone breaks the constant-delay rule
        reference = forward_derivative(solution, rewards, direction)
        assert gradient[edge] == pytest.approx(reference, rel=1e-9, abs=1e-15)


def test_mrgp_route_equals_the_csr_route_on_a_clockless_net():
    parameters = PerceptionParameters.four_version_defaults()
    net = build_net(parameters)
    csr = solve_steady_state(net, use_cache=False)
    mrgp = solve_steady_state(net, method="mrgp", use_cache=False)
    assert (csr.method, mrgp.method) == ("sparse", "mrgp")
    rewards = eq1_rewards(parameters, csr)
    np.testing.assert_allclose(
        reward_gradient(mrgp, rewards),
        reward_gradient(csr, rewards),
        rtol=1e-11,
        atol=1e-15,
    )


def test_delay_gradient_is_the_derivative_in_the_interval():
    """The clock's delay edges carry dE/dτ: a full-solve difference in τ."""
    parameters = PerceptionParameters.six_version_defaults()
    solution = solve_steady_state(build_net(parameters), use_cache=False)
    gradient = reward_gradient(solution, eq1_rewards(parameters, solution))
    delay = solution.graph.structure.edge_deterministic
    exact = gradient[delay].sum()
    tau, h = parameters.rejuvenation_interval, 1e-3
    upper = evaluate(parameters.replace(rejuvenation_interval=tau + h))
    lower = evaluate(parameters.replace(rejuvenation_interval=tau - h))
    numeric = (upper.expected_reliability - lower.expected_reliability) / (2 * h)
    assert exact == pytest.approx(numeric, rel=1e-6)
    assert exact < 0.0  # EXPERIMENTS.md erratum 5: no interior optimum
