"""The common seed schedule shared by the batch and reference runtimes.

The equivalence proof between the vectorized batch runtime
(:mod:`repro.simulation.batch.runtime`) and its scalar reference
interpreter (:mod:`repro.simulation.batch.reference`) rests on both
consuming *the same randomness in the same declared order*.  A
continuous-time event loop draws from one sequential RNG stream whose
consumption order depends on the trajectory itself, which makes a
vectorized twin impossible to match draw-for-draw; the batch semantics
therefore discretize time onto a fixed round grid and pre-declare, per
``(seed, chunk, round)``, a fixed block of named uniform arrays.  Both
runtimes index into the *same* block — the batch path with array
operations, the reference path element by element — so any divergence
between them is a logic bug, never an RNG-ordering artifact.

Keying the generator as ``default_rng([seed, chunk, round])`` (a
``SeedSequence`` entropy list) makes every round's block independently
reachable: chunks can be simulated in any order, across any number of
worker processes, and the trajectory is a pure function of the seed.
The two-element key ``[seed, chunk]`` used for the initial-state draws
cannot collide with any three-element round key.

All scalar probability helpers live here too, computed with
``math``-module (not numpy) functions on python floats: both runtimes
call the same helper with the same inputs, so per-round step
probabilities agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.perception.parameters import PerceptionParameters

#: Integer codes for the module state machine
#: (:class:`repro.simulation.modules.ModuleState`) in array form.
STATE_HEALTHY = 0
STATE_COMPROMISED = 1
STATE_FAILED = 2
STATE_REJUVENATING = 3

#: Fault-channel evaluation order within a round (phase B).  Matches the
#: DSPN transitions Tc/Tf/Tr; each channel sees the state left by the
#: previous one.
CHANNEL_ORDER = ("compromise", "fail", "repair")


@dataclass(frozen=True)
class RoundDraws:
    """One round's pre-declared uniform block (all in ``[0, 1)``).

    Shapes are ``(groups,)`` or ``(groups, n_modules)``.  Every array is
    always drawn — even when the consuming feature (rejuvenation, the
    monitor) is disabled — so the schedule's identity depends only on
    ``(seed, chunk, round, groups, n_modules)``, never on which features
    happen to read it.
    """

    #: Per-module rejuvenation-completion draws (phase A).
    u_done: np.ndarray
    #: Per-channel firing draws, ordered as :data:`CHANNEL_ORDER` (phase B).
    u_channel: np.ndarray
    #: Per-channel victim selectors (phase B).
    u_victim: np.ndarray
    #: Per-module rejuvenation-selection keys (phase C).
    u_select: np.ndarray
    #: Ground-truth label selector (phase D).
    u_truth: np.ndarray
    #: Common-mode wrong-label selector (phase D).
    u_common: np.ndarray
    #: Healthy-pool error-event draw (phase D).
    u_error: np.ndarray
    #: Error-leader selector among healthy modules (phase D).
    u_leader: np.ndarray
    #: Per-module drag draws for dependent healthy errors (phase D).
    u_alpha: np.ndarray
    #: Per-module compromised-error draws (phase D).
    u_comp_err: np.ndarray
    #: Per-module compromised wrong-label selectors (phase D).
    u_comp_label: np.ndarray


class SeedSchedule:
    """Counter-keyed uniform blocks for one simulation configuration."""

    def __init__(self, seed: int, n_modules: int) -> None:
        if seed < 0:
            raise SimulationError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self.n_modules = int(n_modules)

    def round_draws(
        self, chunk_index: int, round_index: int, n_groups: int
    ) -> RoundDraws:
        """The fixed uniform block of one ``(chunk, round)``."""
        rng = np.random.default_rng([self.seed, chunk_index, round_index])
        g, n = n_groups, self.n_modules
        # Draw order is part of the schedule's identity — never reorder.
        return RoundDraws(
            u_done=rng.random((g, n)),
            u_channel=rng.random((g, len(CHANNEL_ORDER))),
            u_victim=rng.random((g, len(CHANNEL_ORDER))),
            u_select=rng.random((g, n)),
            u_truth=rng.random(g),
            u_common=rng.random(g),
            u_error=rng.random(g),
            u_leader=rng.random(g),
            u_alpha=rng.random((g, n)),
            u_comp_err=rng.random((g, n)),
            u_comp_label=rng.random((g, n)),
        )

    def init_draws(self, chunk_index: int, n_groups: int) -> np.ndarray:
        """Per-group uniforms for sampling the initial census."""
        rng = np.random.default_rng([self.seed, chunk_index])
        return rng.random(n_groups)


# ----------------------------------------------------------------------
# shared scalar probability helpers
# ----------------------------------------------------------------------
def step_probability(rate: float, dt: float) -> float:
    """P(an exponential event of ``rate`` fires within one ``dt`` step)."""
    return -math.expm1(-rate * dt)


def channel_probabilities(
    parameters: PerceptionParameters, dt: float, multiplier: float = 1.0
) -> tuple[float, float, float]:
    """Per-round firing probabilities of the Tc/Tf/Tr channels.

    ``CHANNEL`` semantics: one shared channel per kind whose rate is
    independent of how many modules are eligible (``min(count, 1)``
    scaling), so the step probability is a scalar; eligibility gating
    (no victims -> no firing) is the caller's mask.  ``multiplier`` is
    the attack campaign's compromise-rate factor for the round.
    """
    return (
        step_probability(parameters.lambda_c * multiplier, dt),
        step_probability(parameters.lambda_f, dt),
        step_probability(parameters.mu, dt),
    )


def completion_probabilities(
    parameters: PerceptionParameters, dt: float
) -> np.ndarray:
    """Per-round completion probability, indexed by rejuvenation batch size.

    Entry ``b`` is the chance that a module rejuvenating in a batch of
    ``b`` (exponential mean ``b * time_per_module``, the DSPN's
    marking-dependent Trj) finishes within one ``dt`` step.  Entry 0 is a placeholder (a batch
    is never empty).
    """
    per_module = parameters.rejuvenation_time_per_module
    return np.array(
        [
            step_probability(1.0 / (per_module * max(1, batch)), dt)
            for batch in range(parameters.n_modules + 1)
        ]
    )


# ----------------------------------------------------------------------
# initial states
# ----------------------------------------------------------------------
CensusTable = tuple[tuple[tuple[int, int, int], float], ...]


def stationary_census_table(parameters: PerceptionParameters) -> CensusTable:
    """The analytic stationary census distribution as a plain table.

    Sampling initial per-group censuses from the engine's stationary
    solution removes the warm-up transient: the ensemble starts in (a
    census-level projection of) steady state, so the statistical oracle
    needs only a short burn-in for the deterministic-clock phase rather
    than a full relaxation.  Plain tuples keep the table picklable
    inside a :class:`~repro.simulation.batch.runtime.BatchConfig`.
    """
    from repro.perception.evaluation import evaluate

    result = evaluate(parameters)
    items = sorted(
        result.state_probabilities.items(),
        key=lambda item: (item[0].healthy, item[0].compromised, item[0].unavailable),
    )
    total = sum(weight for _, weight in items)
    return tuple(
        (
            (census.healthy, census.compromised, census.unavailable),
            weight / total,
        )
        for census, weight in items
    )


def sample_initial_states(
    table: CensusTable | None, uniforms: np.ndarray, n_modules: int
) -> np.ndarray:
    """Per-group initial module states from census-table inversion.

    Without a table every module starts ``HEALTHY`` (the deployment
    state).  With one, each group's census is drawn
    by inverting the table's CDF at the group's uniform, and modules are
    laid out healthy-first, then compromised, then ``FAILED`` for the
    unavailable remainder (the census does not distinguish failed from
    rejuvenating; ``FAILED`` needs no completion clock).
    """
    g = int(uniforms.shape[0])
    if table is None:
        return np.full((g, n_modules), STATE_HEALTHY, dtype=np.int8)
    edges = np.cumsum([weight for _, weight in table])
    picks = np.searchsorted(edges, uniforms, side="right")
    picks = np.minimum(picks, len(table) - 1)
    healthy = np.array([census[0] for census, _ in table], dtype=np.int64)[picks]
    compromised = np.array([census[1] for census, _ in table], dtype=np.int64)[picks]
    slots = np.arange(n_modules)[None, :]
    states = np.where(
        slots < healthy[:, None],
        STATE_HEALTHY,
        np.where(
            slots < (healthy + compromised)[:, None],
            STATE_COMPROMISED,
            STATE_FAILED,
        ),
    )
    return states.astype(np.int8)


def wrong_labels(
    truth: np.ndarray, uniforms: np.ndarray, n_labels: int
) -> np.ndarray:
    """A uniformly random wrong label per draw (never equal to ``truth``)."""
    return (truth + 1 + (uniforms * (n_labels - 1)).astype(np.int64)) % n_labels
