"""Vectorized counterpart of :class:`repro.simulation.voter.Voter`.

One call tallies every replica group's round at once: labels arrive as a
``(groups, n_modules)`` integer array with ``-1`` marking a module that
produced no output, and the result carries the same per-group quantities
``Voter.tally`` derives for a single round — votes cast, votes for the
ground truth, the plurality winner (ties broken towards the smaller
label, matching the scalar tie-break exactly since ``argmax`` returns
the first maximum), the winner's vote count and its margin over the
runner-up.

Outcome classification uses the same integer codes throughout the batch
package so ``(rounds, groups)`` outcome arrays stay ``int8``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nversion.voting import VotingScheme
from repro.simulation.voter import VoteOutcome, check_vote_capacity

#: Integer outcome codes (array form of :class:`VoteOutcome`).
OUTCOME_CORRECT = 0
OUTCOME_ERROR = 1
OUTCOME_INCONCLUSIVE = 2

#: Code -> enum, for reports and cross-checks against the scalar voter.
OUTCOME_OF_CODE = {
    OUTCOME_CORRECT: VoteOutcome.CORRECT,
    OUTCOME_ERROR: VoteOutcome.ERROR,
    OUTCOME_INCONCLUSIVE: VoteOutcome.INCONCLUSIVE,
}
CODE_OF_OUTCOME = {outcome: code for code, outcome in OUTCOME_OF_CODE.items()}

#: Label marking "no output" in batch label arrays.
NO_OUTPUT = -1


@dataclass(frozen=True)
class BatchTally:
    """Per-group vote tallies of one round (all arrays ``(groups,)``).

    ``winner`` is ``-1`` for a group where no votes were cast, the array
    analogue of the scalar tally's ``winner=None``.
    """

    votes: np.ndarray
    correct: np.ndarray
    winner: np.ndarray
    #: Votes for the winner (0 where no votes were cast).
    top: np.ndarray
    margin: np.ndarray


def tally_rounds(
    labels: np.ndarray,
    truth: np.ndarray,
    n_labels: int,
    scheme: VotingScheme,
) -> BatchTally:
    """Tally one round across all groups (array ``Voter.tally``)."""
    groups, slots = labels.shape
    check_vote_capacity(slots, scheme)
    rows = np.arange(groups)
    cast = labels >= 0
    flat = (rows[:, None] * n_labels + labels)[cast]
    counts = np.bincount(flat, minlength=groups * n_labels).reshape(
        groups, n_labels
    )
    votes = cast.sum(axis=1)
    correct = counts[rows, truth]
    winner = counts.argmax(axis=1)
    top = counts[rows, winner]
    counts[rows, winner] = -1
    runner_up = counts.max(axis=1)
    counts[rows, winner] = top
    return BatchTally(
        votes=votes,
        correct=correct,
        winner=np.where(votes > 0, winner, NO_OUTPUT),
        top=top,
        margin=np.where(votes > 0, top - runner_up, 0),
    )


def classify_worst_case(
    votes: np.ndarray, correct: np.ndarray, threshold: int
) -> np.ndarray:
    """Worst-case outcome codes from per-group vote counts.

    The worst-case agreement model only needs *how many* modules were
    right and wrong (all wrong outputs are assumed to pool), so the fast
    batch path classifies straight from counts without materializing
    labels — the array form of ``Voter.classify`` under
    ``AgreementModel.WORST_CASE``.
    """
    return _classify(correct, votes - correct, threshold)


def classify_per_label(tally: BatchTally, threshold: int) -> np.ndarray:
    """Per-label outcome codes: only identical wrong labels pool votes.

    The array form of ``Voter.classify`` under
    ``AgreementModel.PER_LABEL``.  A round below the correct threshold
    is an error when its plurality winner reaches the threshold; such a
    winner outvotes the ground truth, so it is necessarily wrong.
    """
    return _classify(tally.correct, tally.top, threshold)


def _classify(
    correct: np.ndarray, wrong: np.ndarray, threshold: int
) -> np.ndarray:
    """Outcome codes from the correct votes and the strongest wrong
    answer's votes."""
    outcome = np.full(correct.shape, OUTCOME_INCONCLUSIVE, dtype=np.int8)
    outcome[correct >= threshold] = OUTCOME_CORRECT
    outcome[(correct < threshold) & (wrong >= threshold)] = OUTCOME_ERROR
    return outcome
