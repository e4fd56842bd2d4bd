"""Tests for the ground-truth monitoring metrics."""

import numpy as np
import pytest

from repro.monitor.controller import ROLLING_WINDOW, MonitorController
from repro.monitor.core import HealthMonitor
from repro.monitor.policies import MonitorConfig
from repro.nversion.voting import VotingScheme
from repro.perception.parameters import PerceptionParameters
from repro.simulation.voter import VoteOutcome, Voter

N_MODULES = 6


def one(module_id):
    mask = np.zeros((1, N_MODULES), dtype=bool)
    mask[0, module_id] = True
    return mask


NONE = np.zeros((1, N_MODULES), dtype=bool)


class Ledger:
    """A one-group monitor's ledger, driven per module."""

    def __init__(self):
        self.core = HealthMonitor(
            PerceptionParameters.six_version_defaults(), MonitorConfig()
        )

    def record_transition(self, now, module_id, kind):
        self.core.record_transition(now, kind, one(module_id))

    def record_flag(self, now, module_id):
        self.core.metrics.record_crossings(now, one(module_id), NONE)

    def summary(self):
        return self.core.report().summary()


@pytest.fixture
def metrics():
    return Ledger()


@pytest.fixture
def controller():
    return MonitorController(PerceptionParameters.six_version_defaults())


def feed(controller, now, outcome):
    voter = Voter(VotingScheme.bft_with_rejuvenation(1, 1))
    outputs = [0] * N_MODULES
    controller.observe_round(now, outputs, voter.tally(outputs, 0), outcome)


class TestDetection:
    def test_latency_from_compromise_to_flag(self, metrics):
        metrics.record_transition(10.0, 0, "compromise")
        metrics.record_flag(15.0, 0)
        summary = metrics.summary()
        assert summary.compromises == 1
        assert summary.detected == 1
        assert summary.mean_detection_latency == pytest.approx(5.0)
        assert summary.max_detection_latency == pytest.approx(5.0)
        assert summary.false_alarms == 0

    def test_undetected_compromise_is_censored(self, metrics):
        metrics.record_transition(10.0, 0, "compromise")
        metrics.record_transition(20.0, 0, "rejuvenation-start")
        summary = metrics.summary()
        assert summary.censored == 1
        assert summary.detected == 0
        assert summary.mean_detection_latency is None

    def test_failure_censors_too(self, metrics):
        metrics.record_transition(10.0, 0, "compromise")
        metrics.record_transition(12.0, 0, "fail")
        assert metrics.summary().censored == 1

    def test_flag_on_healthy_module_is_false_alarm(self, metrics):
        metrics.record_flag(5.0, 3)
        summary = metrics.summary()
        assert summary.false_alarms == 1
        assert summary.detected == 0

    def test_compromise_while_flagged_detected_immediately(self, metrics):
        """A standing (false-alarm) flag detects the compromise at t=0."""
        metrics.record_flag(5.0, 0)
        metrics.record_transition(10.0, 0, "compromise")
        summary = metrics.summary()
        assert summary.detected == 1
        assert summary.mean_detection_latency == 0.0

    def test_duplicate_flags_ignored(self, metrics):
        metrics.record_flag(5.0, 0)
        metrics.record_flag(6.0, 0)
        assert metrics.summary().false_alarms == 1
        assert metrics.core.metrics.flags == 1

    def test_repair_clears_stale_flag(self, metrics):
        """After a repair the module is healthy; old flags must not
        detect the *next* compromise instantly."""
        metrics.record_flag(5.0, 0)
        metrics.record_transition(6.0, 0, "repair")
        metrics.record_transition(10.0, 0, "compromise")
        metrics.record_flag(14.0, 0)
        summary = metrics.summary()
        assert summary.detected == 1
        assert summary.mean_detection_latency == pytest.approx(4.0)


class TestTriggers:
    def test_trigger_on_compromised_module(self, metrics):
        metrics.record_transition(10.0, 0, "compromise")
        metrics.record_transition(20.0, 0, "rejuvenation-start")
        summary = metrics.summary()
        assert summary.triggers == 1
        assert summary.false_triggers == 0
        assert summary.false_trigger_rate == 0.0

    def test_trigger_on_healthy_module_is_false(self, metrics):
        metrics.record_transition(20.0, 1, "rejuvenation-start")
        summary = metrics.summary()
        assert summary.triggers == 1
        assert summary.false_triggers == 1
        assert summary.false_trigger_rate == 1.0

    def test_trigger_after_detection_still_attributed(self, metrics):
        """Detection closes the pending-compromise episode; the later
        rejuvenation must still count as a true trigger."""
        metrics.record_transition(10.0, 0, "compromise")
        metrics.record_flag(12.0, 0)
        metrics.record_transition(600.0, 0, "rejuvenation-start")
        summary = metrics.summary()
        assert summary.triggers == 1
        assert summary.false_triggers == 0

    def test_rejuvenation_done_resets_attribution(self, metrics):
        metrics.record_transition(10.0, 0, "compromise")
        metrics.record_transition(20.0, 0, "rejuvenation-start")
        metrics.record_transition(23.0, 0, "rejuvenation-done")
        metrics.record_transition(30.0, 0, "rejuvenation-start")
        summary = metrics.summary()
        assert summary.triggers == 2
        assert summary.false_triggers == 1


class TestReliability:
    def test_cumulative_and_rolling(self, controller):
        feed(controller, 1.0, VoteOutcome.ERROR)
        for i in range(ROLLING_WINDOW):
            feed(controller, float(i + 2), VoteOutcome.CORRECT)
        summary = controller.summary()
        assert summary.rounds == ROLLING_WINDOW + 1
        assert summary.errors == 1
        assert summary.empirical_reliability == pytest.approx(
            ROLLING_WINDOW / (ROLLING_WINDOW + 1)
        )
        # the error has rolled out of the window
        assert summary.rolling_reliability == 1.0

    def test_report_without_a_window_renders_the_cumulative_rate_alone(
        self, controller
    ):
        feed(controller, 1.0, VoteOutcome.ERROR)
        feed(controller, 2.0, VoteOutcome.CORRECT)
        summary = controller.core.report().summary()
        assert summary.rolling_reliability is None
        text = summary.render()
        assert "rolling reliability" not in text
        assert "reliability          : 0.50000 (cumulative over 2 rounds)" in text

    def test_inconclusive_is_not_an_error(self, controller):
        feed(controller, 1.0, VoteOutcome.INCONCLUSIVE)
        assert controller.summary().errors == 0

    def test_empty_run(self, controller):
        summary = controller.summary()
        assert summary.empirical_reliability == 1.0
        assert summary.rolling_reliability == 1.0
        assert summary.detection_rate == 0.0

    def test_render_mentions_key_numbers(self, controller):
        controller.notify_transition(10.0, 0, "compromise")
        controller.core.metrics.record_crossings(15.0, one(0), NONE)
        feed(controller, 16.0, VoteOutcome.CORRECT)
        text = controller.summary().render()
        assert "5.0 s" in text
        assert "1 detected" in text

    def test_reset(self, controller):
        controller.notify_transition(10.0, 0, "compromise")
        feed(controller, 11.0, VoteOutcome.ERROR)
        controller.begin_run()
        summary = controller.summary()
        assert summary.compromises == 0
        assert summary.rounds == 0
        assert summary.rolling_reliability == 1.0
