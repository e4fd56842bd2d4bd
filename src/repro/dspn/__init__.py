"""DSPN solution: analytic (CTMC / MRGP) and simulative.

The solver dispatches on the model class:

* nets whose tangible markings enable **no deterministic transition**
  reduce to a CTMC (the paper's Fig. 2a model);
* nets with **at most one deterministic transition enabled per tangible
  marking** are solved exactly as Markov-regenerative processes (the
  paper's Fig. 2b/2c rejuvenation model, solved the same way TimeNET
  does);
* anything else must use the discrete-event simulator
  (:func:`~repro.dspn.simulate.simulate`), which supports arbitrary
  DSPNs under enabling-memory timer semantics.

Entry points::

    result = solve_steady_state(net)        # SteadyStateResult
    value  = result.expected_reward(fn)     # fn: Marking -> float

    estimate = simulate(net, horizon=1e5, reward=fn, replications=20)

    gradient = reward_gradient(result, rewards)  # dE/d(every edge value)
"""

from repro.dspn.gradient import reward_gradient
from repro.dspn.rewards import reward_vector
from repro.dspn.simulate import (
    SimulationEstimate,
    TransientProfile,
    replication_averages,
    simulate,
    transient_profile,
)
from repro.dspn.sparse_builder import sparse_generator
from repro.dspn.steady_state import (
    METHODS,
    SteadyStateResult,
    route_exponential,
    solve_steady_state,
)
from repro.dspn.transient import transient_rewards

__all__ = [
    "METHODS",
    "SimulationEstimate",
    "SteadyStateResult",
    "TransientProfile",
    "replication_averages",
    "reward_gradient",
    "reward_vector",
    "route_exponential",
    "simulate",
    "solve_steady_state",
    "sparse_generator",
    "transient_profile",
    "transient_rewards",
]
