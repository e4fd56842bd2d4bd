"""Tests for the disagreement-signal layer."""

from repro.monitor.signals import round_signal
from repro.nversion.voting import VotingScheme
from repro.simulation.voter import Voter


def tally_of(outputs, truth=0):
    return Voter(VotingScheme.bft(1)).tally(outputs, truth)


class TestRoundSignal:
    def test_deviation_against_plurality(self):
        outputs = [5, 5, 5, 9]
        signal = round_signal(1.0, outputs, tally_of(outputs, truth=5))
        assert signal.participated == (True, True, True, True)
        assert signal.deviated == (False, False, False, True)
        assert signal.margin == 2

    def test_missing_outputs_do_not_deviate(self):
        outputs = [5, None, 5, 9]
        signal = round_signal(2.0, outputs, tally_of(outputs, truth=5))
        assert signal.participated == (True, False, True, True)
        assert signal.deviated == (False, False, False, True)

    def test_empty_round_has_no_deviations(self):
        outputs = [None, None, None, None]
        signal = round_signal(3.0, outputs, tally_of(outputs))
        assert signal.deviated == (False,) * 4
        assert signal.margin == 0

    def test_deviation_is_ground_truth_free(self):
        """A wrong plurality flags the correct module — by design."""
        outputs = [8, 8, 8, 5]
        signal = round_signal(4.0, outputs, tally_of(outputs, truth=5))
        assert signal.deviated == (False, False, False, True)
