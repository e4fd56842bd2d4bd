"""Runtime voting over module outputs.

Modules emit per-request outputs; the voter classifies each request as
``CORRECT``, ``ERROR`` or ``INCONCLUSIVE`` against the BFT threshold of
a :class:`~repro.nversion.voting.VotingScheme` (assumptions A.2/A.3).

Two agreement models are available:

* ``WORST_CASE`` — all incorrect outputs are assumed to agree with each
  other (e.g. a coordinated adversarial perturbation).  This matches the
  analytic reliability functions, which only count how *many* modules
  err, and is the default for cross-validation.
* ``PER_LABEL`` — incorrect outputs carry concrete (possibly differing)
  labels and only identical labels pool votes; wrong-but-disagreeing
  modules then push the vote towards ``INCONCLUSIVE`` rather than
  ``ERROR``.  This is the realistic multi-class behaviour and shows how
  conservative the analytic model is.

Classification runs over an intermediate :class:`VoteTally` — the
per-label vote counts and the winning margin of one round.  The tally is
also the raw material of the monitoring layer
(:mod:`repro.monitor.signals`): a module that keeps landing outside the
plurality label is statistically suspect, and the margin says how
decisive each round was.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.nversion.voting import VotingScheme


def check_vote_capacity(n_slots: int, scheme: VotingScheme) -> None:
    """Reject a vote that can never reach the scheme's threshold.

    With fewer than ``threshold`` module slots even a unanimous round
    cannot produce a ``CORRECT`` or ``ERROR`` classification — every
    round would silently tally ``INCONCLUSIVE``, which almost always
    means the caller paired a voting scheme with the wrong module pool.
    Shared by the scalar :class:`Voter` and the vectorized batch tally
    (:mod:`repro.simulation.batch.voter`).
    """
    if n_slots < scheme.threshold:
        details = ", ".join(
            f"{key}={value}"
            for key, value in sorted(
                {
                    "scheme": scheme.name,
                    "slots": n_slots,
                    "threshold": scheme.threshold,
                }.items()
            )
        )
        raise SimulationError(
            f"{n_slots} module slot(s) can never reach the voting threshold "
            f"{scheme.threshold} of scheme {scheme.name!r} ({details}); "
            "supply at least `threshold` outputs (N >= 2f+r+1 with "
            "rejuvenation, N >= 2f+1 without) or relax the scheme"
        )


class VoteOutcome(enum.Enum):
    """Classification of one perception request."""

    CORRECT = "correct"
    ERROR = "error"
    INCONCLUSIVE = "inconclusive"


class AgreementModel(enum.Enum):
    """How incorrect outputs coalesce into votes."""

    WORST_CASE = "worst-case"
    PER_LABEL = "per-label"


@dataclass(frozen=True)
class VoteTally:
    """Per-label vote counts and the winning margin of one round.

    Attributes
    ----------
    counts:
        Votes per concrete label (missing outputs excluded).
    ground_truth:
        The true label of the round.
    votes:
        Total votes cast (modules that produced an output).
    correct:
        Votes for the ground-truth label.
    winner:
        The plurality label (ties broken towards the smaller label so
        the result is deterministic), or ``None`` when no votes were
        cast.
    margin:
        Vote lead of the winner over the runner-up label (equal to the
        winner's count when only one label received votes, 0 when no
        votes were cast).
    """

    counts: dict[int, int]
    ground_truth: int
    votes: int
    correct: int
    winner: int | None
    margin: int

    @property
    def incorrect(self) -> int:
        """Votes cast for any wrong label."""
        return self.votes - self.correct


class Voter:
    """BFT-threshold voter over per-request module outputs."""

    def __init__(
        self,
        scheme: VotingScheme,
        *,
        agreement: AgreementModel = AgreementModel.WORST_CASE,
    ) -> None:
        self.scheme = scheme
        self.agreement = agreement

    def tally(
        self,
        outputs: Sequence[Optional[int]],
        ground_truth: int,
    ) -> VoteTally:
        """Count the round's votes per label and compute the margin.

        ``outputs`` holds one entry per module: the predicted label, or
        ``None`` for a module that produced no output.  Shared by
        :meth:`classify` and the monitoring layer's disagreement signals;
        the tally itself is agreement-model independent (the model only
        matters when *classifying* a tally).
        """
        check_vote_capacity(len(outputs), self.scheme)
        counts = Counter(label for label in outputs if label is not None)
        votes = sum(counts.values())
        if counts:
            # deterministic plurality: most votes, then smallest label
            winner, top = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            runner_up = max(
                (count for label, count in counts.items() if label != winner),
                default=0,
            )
            margin = top - runner_up
        else:
            winner, margin = None, 0
        return VoteTally(
            counts=dict(counts),
            ground_truth=ground_truth,
            votes=votes,
            correct=counts.get(ground_truth, 0),
            winner=winner,
            margin=margin,
        )

    def classify(self, tally: VoteTally) -> VoteOutcome:
        """Classify a tallied round against the BFT threshold."""
        threshold = self.scheme.threshold
        if tally.correct >= threshold:
            return VoteOutcome.CORRECT

        if self.agreement is AgreementModel.WORST_CASE:
            if tally.incorrect >= threshold:
                return VoteOutcome.ERROR
            return VoteOutcome.INCONCLUSIVE

        wrong_counts = [
            count
            for label, count in tally.counts.items()
            if label != tally.ground_truth
        ]
        if wrong_counts and max(wrong_counts) >= threshold:
            return VoteOutcome.ERROR
        return VoteOutcome.INCONCLUSIVE
