"""Build a dense CTMC from the tangible graph of an exponential-only net.

The steady-state and transient solvers run on the CSR generator of
:mod:`repro.dspn.sparse_builder`; the dense :class:`~repro.markov.ctmc.CTMC`
built here serves generator sensitivities and user-built dense chains.
"""

from __future__ import annotations

import numpy as np

from repro.errors import UnsupportedModelError
from repro.markov.ctmc import CTMC
from repro.obs import span
from repro.statespace.graph import TangibleGraph


def generator_derivative(graph: TangibleGraph, transition: str) -> np.ndarray:
    """``dQ/dθ`` for the base rate θ of one exponential transition.

    Valid when the transition's rate enters every edge linearly (constant
    rate, single-server semantics — true for the perception models):
    then ``dQ/dθ`` is the 0/1-weighted incidence pattern of that
    transition's edges, with diagonal compensation.  Feed the result to
    :mod:`repro.markov.sensitivity` for exact reward sensitivities.
    """
    n = graph.n_states
    derivative = np.zeros((n, n))
    found = False
    for source in range(n):
        for edge in graph.exponential_edges[source]:
            if edge.transition != transition:
                continue
            found = True
            for target, probability in edge.targets:
                if target == source:
                    continue
                derivative[source, target] += probability
    if not found:
        raise UnsupportedModelError(
            f"transition {transition!r} contributes no exponential edge"
        )
    np.fill_diagonal(derivative, -derivative.sum(axis=1))
    return derivative


def build_ctmc(graph: TangibleGraph) -> CTMC:
    """Construct the CTMC of a net with no deterministic behaviour.

    Exponential edges whose vanishing resolution splits over several
    tangible targets contribute ``rate * probability`` to each target.

    Raises
    ------
    UnsupportedModelError
        If any tangible marking enables a deterministic transition (use
        the MRGP builder instead).
    """
    if graph.has_deterministic():
        raise UnsupportedModelError(
            "the net enables deterministic transitions; build an MRGP instead"
        )
    with span("dspn.ctmc_builder", states=graph.n_states):
        n = graph.n_states
        generator = np.zeros((n, n))
        for source in range(n):
            for edge in graph.exponential_edges[source]:
                for target, probability in edge.targets:
                    if target == source:
                        continue  # invisible self-loops do not affect the CTMC
                    generator[source, target] += edge.rate * probability
        np.fill_diagonal(generator, -generator.sum(axis=1))
        return CTMC(generator, states=list(range(n)))
