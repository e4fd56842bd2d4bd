"""Stationary accuracy against a reference that is not the solver.

The reference is a test-local GTH (Grassmann–Taksar–Heyman) elimination:
it works on the off-diagonal rates alone and never subtracts, so it is
accurate entry by entry even where π spans hundreds of decades.  The
chains are the ones where that matters for Eq. 1:

* the N=32 and N=44 no-rejuvenation nets (dense CTMC route), whose
  E[R] lives in entries far below 1e-10;
* the N=12/14/16 MRGP embedded chains, on their recurrent class (the
  solver must give every transient state exactly zero);
* the six-version exponential-clock embedded chain, whose smallest
  exit rate belongs to a state of mass ~1e-20.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dspn.ctmc_builder import build_ctmc
from repro.dspn.mrgp_builder import build_mrgp_kernels
from repro.markov.linear import recurrent_states
from repro.markov.mrgp import solve_mrgp
from repro.perception.evaluation import default_reliability_function
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_rejuvenation_net
from repro.perception.statemap import module_counts
from repro.statespace import tangible_reachability

#: Relative agreement demanded of every π entry and of E[R].
RELATIVE = 1e-11


def gth(rates: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible chain from its off-diagonal rates."""
    a = np.array(rates, dtype=float)
    np.fill_diagonal(a, 0.0)
    n = a.shape[0]
    for k in range(n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


def assert_entrywise(pi: np.ndarray, reference: np.ndarray) -> None:
    support = reference > 0.0
    assert np.all(pi[~support] == 0.0)
    error = np.abs(pi[support] - reference[support]) / reference[support]
    assert error.max() <= RELATIVE, f"max relative error {error.max():.3e}"


def expected_reward(parameters, markings, pi) -> float:
    reliability = default_reliability_function(parameters)
    rewards = np.array(
        [
            reliability(c.healthy, c.compromised, c.unavailable)
            for c in map(module_counts, markings)
        ],
        dtype=float,
    )
    return float(pi @ rewards)


@pytest.mark.parametrize("versions", [32, 44])
def test_no_rejuvenation_chains(versions):
    parameters = PerceptionParameters(
        n_modules=versions, f=1, r=1, rejuvenation=False, p=0.05
    )
    graph = tangible_reachability(build_no_rejuvenation_net(parameters))
    chain = build_ctmc(graph)
    pi = chain.stationary_distribution()
    reference = gth(chain.generator)
    assert pi.min() < 1e-90  # the range that makes clipping or pivoting fail
    assert_entrywise(pi, reference)
    value = expected_reward(parameters, graph.markings, pi)
    expected = expected_reward(parameters, graph.markings, reference)
    assert abs(value - expected) <= RELATIVE * expected


def assert_mrgp_accurate(parameters, clock="deterministic"):
    """φ on the embedded chain and E[R] of the renewal π, against GTH."""
    graph = tangible_reachability(build_rejuvenation_net(parameters, clock=clock))
    kernel, sojourn = build_mrgp_kernels(graph)
    solution = solve_mrgp(kernel, sojourn)
    n = kernel.shape[0]
    recurrent = np.flatnonzero(recurrent_states(kernel - np.eye(n), what="kernel"))
    reference = np.zeros(n)
    reference[recurrent] = gth(kernel[np.ix_(recurrent, recurrent)])
    assert_entrywise(solution.phi, reference)
    weighted = reference @ sojourn
    value = expected_reward(parameters, graph.markings, solution.pi)
    expected = expected_reward(parameters, graph.markings, weighted / weighted.sum())
    assert abs(value - expected) <= RELATIVE * expected
    return kernel, recurrent, reference


@pytest.mark.parametrize(
    "parameters",
    [
        PerceptionParameters(n_modules=12, f=1, r=1, rejuvenation=True),
        PerceptionParameters(n_modules=14, f=1, r=2, rejuvenation=True),
        PerceptionParameters(n_modules=16, f=1, r=1, rejuvenation=True),
    ],
    ids=["N12", "N14-r2", "N16"],
)
def test_mrgp_embedded_chains(parameters):
    kernel, recurrent, _ = assert_mrgp_accurate(parameters)
    assert recurrent.size < kernel.shape[0]  # the restriction is exercised


def test_six_version_exponential_clock_embedded_chain():
    kernel, _, reference = assert_mrgp_accurate(
        PerceptionParameters.six_version_defaults(), clock="exponential"
    )
    # the smallest exit probability belongs to a state of negligible
    # mass: the solver has to re-anchor to stay accurate
    assert reference[np.argmax(np.diag(kernel))] < 1e-15
