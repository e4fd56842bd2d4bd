"""Transient (time-dependent) analysis of exponential-only DSPNs.

The paper evaluates steady-state reliability; transient analysis is one
of the natural extensions this library ships: "what is the expected
output reliability t seconds after a fresh deployment?".

Only nets without deterministic transitions are supported analytically
(uniformization on the CSR generator of the underlying CTMC, the same
generator the stationary solver uses); for rejuvenating nets use the
discrete-event simulator with a finite horizon.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.dspn.rewards import RewardFunction, reward_vector
from repro.dspn.sparse_builder import sparse_generator
from repro.dspn.steady_state import tangible_graph
from repro.engine.cache import active_cache
from repro.errors import UnsupportedModelError
from repro.markov.sparse import transient_distribution_sparse
from repro.obs import span
from repro.petri.marking import Marking
from repro.petri.net import PetriNet


@dataclass
class TransientResult:
    """Reward trajectory over a set of time points."""

    times: list[float]
    rewards: list[float]
    markings: list[Marking]
    distributions: np.ndarray  # shape (len(times), n_markings)


def transient_rewards(
    net: PetriNet,
    reward: RewardFunction,
    times: Sequence[float],
    *,
    max_states: int = 200_000,
) -> TransientResult:
    """Expected instantaneous reward at each time in ``times``.

    The initial distribution is the net's initial marking (resolved
    through vanishing markings if needed).  The tangible graph comes
    through the active cache's structure tier, as in
    :func:`~repro.dspn.steady_state.solve_steady_state`.
    """
    cache = active_cache()
    graph, tier = tangible_graph(
        net,
        max_states=max_states,
        structures=None if cache is None else cache.structures,
    )
    if graph.has_deterministic():
        raise UnsupportedModelError(
            "transient analysis supports exponential-only nets; "
            "use the discrete-event simulator for deterministic transitions"
        )
    rewards = reward_vector(graph.markings, reward)
    initial = np.asarray(graph.initial_distribution, dtype=float)

    with span("dspn.transient", states=graph.n_states) as sp:
        sp.set(structure=tier)
        generator = sparse_generator(graph)
        distributions = [
            transient_distribution_sparse(generator, initial, float(time))
            for time in times
        ]
    return TransientResult(
        times=[float(t) for t in times],
        rewards=[float(distribution @ rewards) for distribution in distributions],
        markings=graph.markings,
        distributions=np.array(distributions),
    )
