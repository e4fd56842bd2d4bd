"""Tests for the runtime voter."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.nversion.voting import VotingScheme
from repro.simulation.batch.voter import (
    CODE_OF_OUTCOME,
    NO_OUTPUT,
    classify_per_label,
    classify_worst_case,
    tally_rounds,
)
from repro.simulation.voter import AgreementModel, VoteOutcome, Voter


def bft_voter(agreement=AgreementModel.WORST_CASE):
    return Voter(VotingScheme.bft(1), agreement=agreement)  # threshold 3 of 4


def decide(voter, outputs, ground_truth):
    """Classify one request: the voter's classify() of its tally()."""
    return voter.classify(voter.tally(outputs, ground_truth))


class TestTally:
    def test_counts_and_margin(self):
        tally = bft_voter().tally([7, 7, 2, 2, 2, None], ground_truth=7)
        assert tally.counts == {7: 2, 2: 3}
        assert tally.votes == 5
        assert tally.correct == 2
        assert tally.incorrect == 3
        assert tally.winner == 2
        assert tally.margin == 1

    def test_single_label_margin_is_count(self):
        tally = bft_voter().tally([7, 7, 7, None], ground_truth=7)
        assert tally.winner == 7
        assert tally.margin == 3

    def test_tie_breaks_towards_smaller_label(self):
        tally = bft_voter().tally([5, 5, 9, 9], ground_truth=9)
        assert tally.winner == 5
        assert tally.margin == 0

    def test_empty_round(self):
        tally = bft_voter().tally([None, None, None, None], ground_truth=3)
        assert tally.counts == {}
        assert tally.votes == tally.correct == tally.margin == 0
        assert tally.winner is None

    @pytest.mark.parametrize(
        "agreement", [AgreementModel.WORST_CASE, AgreementModel.PER_LABEL]
    )
    def test_tally_is_agreement_independent(self, agreement):
        """The tally is raw counts; only classify() depends on the model."""
        outputs = [1, 2, 3, 7]
        assert bft_voter(agreement).tally(outputs, 7) == bft_voter().tally(outputs, 7)

    @pytest.mark.parametrize(
        "agreement", [AgreementModel.WORST_CASE, AgreementModel.PER_LABEL]
    )
    def test_decide_equals_classify_of_tally(self, agreement):
        """The batch's decision — array classification of tally_rounds —
        is exactly the scalar classify(tally()) for both agreement
        models."""
        voter = bft_voter(agreement)
        cases = [
            [7, 7, 7, 2],
            [1, 2, 3, 7],
            [2, 2, 2, 7],
            [2, 2, 3, 3],
            [7, 7, None, None],
            [None, None, None, None],
        ]
        labels = np.array(
            [[NO_OUTPUT if o is None else o for o in outputs] for outputs in cases]
        )
        tally = tally_rounds(labels, np.full(len(cases), 7), 10, voter.scheme)
        threshold = voter.scheme.threshold
        if agreement is AgreementModel.PER_LABEL:
            codes = classify_per_label(tally, threshold)
        else:
            codes = classify_worst_case(tally.votes, tally.correct, threshold)
        assert codes.tolist() == [
            CODE_OF_OUTCOME[decide(voter, outputs, 7)] for outputs in cases
        ]


class TestWorstCase:
    def test_correct(self):
        voter = bft_voter()
        assert decide(voter, [7, 7, 7, 2], ground_truth=7) is VoteOutcome.CORRECT

    def test_error_pools_all_wrong_labels(self):
        voter = bft_voter()
        # three wrong outputs with different labels still count together
        assert decide(voter, [1, 2, 3, 7], ground_truth=7) is VoteOutcome.ERROR

    def test_inconclusive_on_split(self):
        voter = bft_voter()
        assert decide(voter, [7, 7, 1, 2], ground_truth=7) is VoteOutcome.INCONCLUSIVE

    def test_missing_outputs_reduce_votes(self):
        voter = bft_voter()
        assert (
            decide(voter, [7, 7, None, None], ground_truth=7)
            is VoteOutcome.INCONCLUSIVE
        )

    def test_threshold_reached_with_missing(self):
        voter = bft_voter()
        assert decide(voter, [7, 7, 7, None], ground_truth=7) is VoteOutcome.CORRECT

    def test_all_missing_inconclusive(self):
        voter = bft_voter()
        assert (
            decide(voter, [None, None, None, None], ground_truth=7)
            is VoteOutcome.INCONCLUSIVE
        )


class TestPerLabel:
    def test_disagreeing_wrong_outputs_inconclusive(self):
        voter = bft_voter(AgreementModel.PER_LABEL)
        assert decide(voter, [1, 2, 3, 7], ground_truth=7) is VoteOutcome.INCONCLUSIVE

    def test_agreeing_wrong_outputs_error(self):
        voter = bft_voter(AgreementModel.PER_LABEL)
        assert decide(voter, [2, 2, 2, 7], ground_truth=7) is VoteOutcome.ERROR

    def test_per_label_never_more_errors_than_worst_case(self):
        worst = bft_voter()
        per_label = bft_voter(AgreementModel.PER_LABEL)
        cases = [
            [1, 2, 3, 7],
            [2, 2, 3, 7],
            [2, 2, 2, 7],
            [7, 7, 7, 7],
            [1, 1, None, 7],
        ]
        for outputs in cases:
            if decide(per_label, outputs, 7) is VoteOutcome.ERROR:
                assert decide(worst, outputs, 7) is VoteOutcome.ERROR


class TestRejuvenationScheme:
    def test_six_version_threshold_four(self):
        voter = Voter(VotingScheme.bft_with_rejuvenation(1, 1))
        outputs = [7, 7, 7, 7, 1, None]
        assert decide(voter, outputs, ground_truth=7) is VoteOutcome.CORRECT
        outputs = [7, 7, 7, 1, 1, None]
        assert decide(voter, outputs, ground_truth=7) is VoteOutcome.INCONCLUSIVE


class TestVoteCapacity:
    """N < 2f+r+1 slots can never reach the threshold: reject eagerly."""

    def test_tally_rejects_undersized_rounds(self):
        voter = bft_voter()  # threshold 3
        with pytest.raises(SimulationError) as excinfo:
            voter.tally([7, 7], ground_truth=7)
        message = str(excinfo.value)
        assert "2 module slot(s)" in message
        assert "threshold 3" in message
        # details are sorted so the error reads the same on every run
        assert message.index("scheme=") < message.index("slots=")
        assert message.index("slots=") < message.index("threshold=")
        assert "N >= 2f+r+1" in message

    def test_tally_accepts_exactly_threshold_slots(self):
        tally = bft_voter().tally([7, 7, 7], ground_truth=7)
        assert tally.winner == 7
        assert tally.correct == 3

    def test_missing_outputs_still_count_as_slots(self):
        """Capacity is about slots, not cast votes: a round where every
        module abstains is a valid (inconclusive) round."""
        tally = bft_voter().tally([None, None, None, None], ground_truth=7)
        assert tally.votes == 0

    def test_batch_tally_rejects_undersized_rounds(self):
        labels = np.array([[7, 7]])
        truth = np.array([7])
        with pytest.raises(SimulationError, match="voting threshold"):
            tally_rounds(labels, truth, 43, VotingScheme.bft(1))

    def test_batch_tally_accepts_exactly_threshold_slots(self):
        labels = np.array([[7, 7, 7], [7, 2, NO_OUTPUT]])
        truth = np.array([7, 7])
        tally = tally_rounds(labels, truth, 43, VotingScheme.bft(1))
        assert tally.correct.tolist() == [3, 1]
        assert tally.winner.tolist() == [7, 2]
