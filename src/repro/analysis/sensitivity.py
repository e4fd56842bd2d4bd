"""Normalized sensitivity (elasticity) analysis.

For each input parameter x the elasticity

    e_x = (x / E[R]) * dE[R]/dx

measures the percentage change of the expected reliability per percent
change of the parameter.  The ranking of |e_x| is the classical
"tornado" view of which parameters matter most — an extension beyond
the paper's one-at-a-time Figure 4 sweeps.  Every elasticity is exact
and comes from one steady-state solve (docs/SOLVERS.md, "Gradients from
one adjoint solve").
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.analysis.sweeps import SWEEPABLE
from repro.dspn.gradient import reward_gradient
from repro.errors import ParameterError
from repro.nversion.conventions import OutputConvention
from repro.perception.evaluation import (
    TIME_TRANSITIONS,
    Evaluation,
    default_reliability_function,
    distinct_states,
    state_values,
)
from repro.perception.parameters import PerceptionParameters
from repro.perception.statemap import state_counts

_DEFAULT_PARAMETERS = ("alpha", "p", "p_prime", "mttc", "mttf", "mttr")

#: Relative step of the reward-only central difference of a probability
#: parameter, near the cube root of unit roundoff.
_REWARD_STEP = 1e-5


@dataclass(frozen=True)
class Elasticity:
    """Normalized sensitivity of E[R] to one parameter."""

    parameter: str
    base_value: float
    elasticity: float


def elasticities(
    base: PerceptionParameters,
    parameters: Sequence[str] = _DEFAULT_PARAMETERS,
    *,
    convention: OutputConvention = OutputConvention.SAFE_SKIP,
    max_states: int = 200_000,
) -> list[Elasticity]:
    """Elasticities of E[R], sorted by decreasing magnitude.

    A time parameter scales the values of its transition's edges (−v on
    a rate, +v on a delay), so its elasticity is the adjoint
    :func:`~repro.dspn.gradient.reward_gradient` applied to that scaling;
    one it does not enter (a rejuvenation parameter of a clockless net)
    has elasticity 0.  ``p``, ``p_prime`` and ``alpha`` enter only
    through the reward vector: ``θ · π · ∂r/∂θ``, with ``∂r/∂θ`` a
    central difference of the rewards alone.
    """
    for name in parameters:
        if name not in SWEEPABLE:
            raise ParameterError(
                f"cannot analyze {name!r}; choose from {sorted(SWEEPABLE)}"
            )
    reliability = default_reliability_function(base, convention=convention)
    solution = Evaluation(base, reliability, max_states=max_states).solve()
    states, index = distinct_states(state_counts(solution.markings))
    rewards = state_values(states, reliability)[index]
    expected = float(solution.pi @ rewards)
    structure, values = solution.graph.structure, solution.graph.values
    transitions = np.asarray(structure.edge_transition)
    gradient = None

    def rewards_at(name: str, value: float) -> np.ndarray:
        changed = base.replace(**{name: value})
        function = default_reliability_function(changed, convention=convention)
        return state_values(states, function)[index]

    results: list[Elasticity] = []
    for name in parameters:
        value = float(getattr(base, name))
        change = 0.0
        if value != 0.0 and name in TIME_TRANSITIONS:
            edges = np.flatnonzero(transitions == TIME_TRANSITIONS[name])
            if edges.size:
                if gradient is None:
                    gradient = reward_gradient(solution, rewards)
                scaled = np.where(structure.edge_deterministic[edges], 1.0, -1.0)
                change = float(gradient[edges] @ (scaled * values[edges]))
        elif value != 0.0:
            step = value * _REWARD_STEP
            step = min(step, (1.0 - value) * 0.5, value * 0.5) or step
            difference = rewards_at(name, value + step) - rewards_at(name, value - step)
            change = value * float(solution.pi @ difference) / (2.0 * step)
        results.append(
            Elasticity(parameter=name, base_value=value, elasticity=change / expected)
        )
    results.sort(key=lambda e: -abs(e.elasticity))
    return results
