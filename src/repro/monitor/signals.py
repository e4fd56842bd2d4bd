"""The per-round disagreement signal the health monitor observes.

The rejuvenation mechanism of the paper is blind: it picks victims
uniformly because "the system cannot tell healthy from compromised
apart".  But the voter *already* produces a discriminating observable
every round: which modules landed outside the plurality label.  A
healthy module deviates rarely (probability ≈ p, partially correlated
through the dependent-error model); a compromised one deviates roughly
every other round (probability p' = 0.5 at Table II defaults).  The
deviation history therefore separates the two hidden states without
ever looking at ground truth.

This module turns each :class:`~repro.simulation.voter.VoteTally` into a
:class:`RoundSignal` (who participated, who deviated, how decisive the
round was).  The Bayesian estimator (:mod:`repro.monitor.estimator`)
consumes its per-round participation and deviation flags.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulation.voter import VoteTally


@dataclass(frozen=True)
class RoundSignal:
    """The observable footprint of one vote round.

    Attributes
    ----------
    time:
        Simulation time of the round.
    participated:
        Per-module flag: produced an output this round.
    deviated:
        Per-module flag: participated *and* voted outside the plurality
        label.  All ``False`` when the round had no plurality (no votes).
    margin:
        The tally's winning margin (0 for an empty round).
    """

    time: float
    participated: tuple[bool, ...]
    deviated: tuple[bool, ...]
    margin: int


def round_signal(
    time: float,
    outputs: "list[int | None]",
    tally: VoteTally,
) -> RoundSignal:
    """Derive the round's signal from raw outputs and their tally.

    Deviation is measured against the *plurality* label, not the ground
    truth — the monitor only sees what the voter sees.  When the
    plurality label is itself wrong (a burst of common-mode errors), the
    correct modules are briefly flagged as deviating; that noise is the
    price of ground-truth-free monitoring and is absorbed by the
    estimator's likelihood model.
    """
    participated = tuple(output is not None for output in outputs)
    if tally.winner is None:
        deviated = (False,) * len(outputs)
    else:
        deviated = tuple(
            output is not None and output != tally.winner for output in outputs
        )
    return RoundSignal(
        time=time, participated=participated, deviated=deviated, margin=tally.margin
    )
