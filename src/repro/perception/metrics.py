"""Domain-level dependability metrics beyond the paper's E[R_sys].

The paper evaluates long-run output reliability.  Operators of a real
perception system also ask *time-domain* questions this module answers
exactly (for the clockless models, which are CTMCs):

* **mean time to quorum loss** — expected time until so many modules
  are simultaneously unavailable that the voter cannot assemble its
  ``2f+1`` outputs (``k > f``, the paper's "reliability is 0" states);
* **quorum-loss probability within a mission** — e.g. "what is the
  chance a 2-hour drive ever loses the voting quorum?";
* **expected misperceptions** over a mission.

For rejuvenating (clocked) systems these quantities are available by
simulation through :func:`repro.simulation.simulate_batch`.  Exact
parameter sensitivities of E[R_sys], for clocked and clockless systems
alike, are :func:`repro.analysis.sensitivity.elasticities`.
"""

from __future__ import annotations

import numpy as np

from repro.dspn.ctmc_builder import build_ctmc
from repro.dspn.steady_state import tangible_graph
from repro.engine.cache import active_cache
from repro.errors import UnsupportedModelError
from repro.markov.first_passage import hitting_probability_by, mean_time_to_hit
from repro.nversion.reliability import ReliabilityFunction
from repro.perception.evaluation import (
    default_reliability_function,
    reliability_rewards,
)
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.parameters import PerceptionParameters
from repro.perception.statemap import state_counts
from repro.statespace import TangibleGraph


def _clockless_ctmc(parameters: PerceptionParameters):
    if parameters.rejuvenation:
        raise UnsupportedModelError(
            "time-domain metrics are analytic for clockless systems only; "
            "simulate the rejuvenating system instead"
        )
    cache = active_cache()
    graph, _ = tangible_graph(
        build_no_rejuvenation_net(parameters),
        max_states=200_000,
        structures=None if cache is None else cache.structures,
    )
    return graph, build_ctmc(graph)


def _quorum_lost_states(graph: TangibleGraph, parameters: PerceptionParameters):
    threshold = parameters.voting_scheme.threshold
    states = state_counts(graph.markings)
    return np.flatnonzero(states[:, 0] + states[:, 1] < threshold).tolist()


def mean_time_to_quorum_loss(parameters: PerceptionParameters) -> float:
    """Expected time from a fresh deployment until the voter first lacks
    ``2f+1`` operational modules."""
    graph, chain = _clockless_ctmc(parameters)
    targets = _quorum_lost_states(graph, parameters)
    if not targets:
        raise UnsupportedModelError(
            "no reachable marking loses the quorum for this configuration"
        )
    initial = np.asarray(graph.initial_distribution, dtype=float)
    return mean_time_to_hit(chain, targets, initial)


def quorum_loss_probability(
    parameters: PerceptionParameters, mission_time: float
) -> float:
    """P(the voting quorum is lost at least once within ``mission_time``)."""
    graph, chain = _clockless_ctmc(parameters)
    targets = _quorum_lost_states(graph, parameters)
    if not targets:
        return 0.0
    initial = np.asarray(graph.initial_distribution, dtype=float)
    return hitting_probability_by(chain, targets, initial, mission_time)


def expected_misperceptions(
    parameters: PerceptionParameters,
    mission_time: float,
    request_rate: float,
    *,
    reliability: ReliabilityFunction | None = None,
) -> float:
    """Expected number of perception errors during a mission.

    With requests arriving at ``request_rate`` per second and the
    per-request error probability ``1 - R(state)``, the expectation is

        request_rate · ∫_0^T (1 - E[R(t)]) dt

    computed exactly on the transient CTMC (clockless systems).  A fresh
    deployment (all modules healthy) is assumed.
    """
    if mission_time < 0:
        raise UnsupportedModelError(f"mission_time must be >= 0, got {mission_time}")
    if request_rate <= 0:
        raise UnsupportedModelError(f"request_rate must be > 0, got {request_rate}")
    if reliability is None:
        reliability = default_reliability_function(parameters)
    graph, chain = _clockless_ctmc(parameters)
    rewards = reliability_rewards(state_counts(graph.markings), reliability)
    initial = np.asarray(graph.initial_distribution, dtype=float)
    accumulated_reliability = chain.accumulated_reward(initial, rewards, mission_time)
    return request_rate * (mission_time - accumulated_reliability)
