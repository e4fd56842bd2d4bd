"""Tests for the monitor controller (the one-group scalar adapter)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.monitor.controller import MonitorController
from repro.monitor.policies import MonitorConfig
from repro.nversion.voting import VotingScheme
from repro.perception.parameters import PerceptionParameters
from repro.simulation.voter import Voter


@pytest.fixture
def parameters():
    return PerceptionParameters.six_version_defaults()


def feed_round(controller, now, outputs, truth=0):
    voter = Voter(VotingScheme.bft_with_rejuvenation(1, 1))
    tally = voter.tally(outputs, truth)
    return controller.observe_round(now, outputs, tally, voter.classify(tally))


class TestConstruction:
    def test_passive_controller_does_not_drive_clock(self, parameters):
        controller = MonitorController(parameters)
        assert not controller.drives_clock

    def test_active_policy_requires_rejuvenation(self, parameters):
        disabled = parameters.replace(rejuvenation=False)
        with pytest.raises(SimulationError, match="rejuvenation disabled"):
            MonitorController(disabled, MonitorConfig(mode="threshold"))

    def test_passive_policy_tolerates_disabled_rejuvenation(self, parameters):
        disabled = parameters.replace(rejuvenation=False)
        controller = MonitorController(disabled)
        assert controller.on_tick(600.0) == []


class TestPassiveObservation:
    def test_rounds_return_no_commands(self, parameters):
        controller = MonitorController(parameters)
        controller.begin_run()
        n = parameters.n_modules
        commands = feed_round(controller, 1.0, [0] * (n - 1) + [7])
        assert commands == []
        assert controller.on_tick(600.0) == []

    def test_estimator_sees_deviations(self, parameters):
        controller = MonitorController(parameters)
        controller.begin_run()
        n = parameters.n_modules
        for i in range(30):
            feed_round(controller, float(i + 1), [0] * (n - 1) + [7])
        posterior = controller.core.estimator.posterior[0]
        assert posterior[n - 1] > 0.9
        assert (posterior[: n - 1] < 0.5).all()

    def test_missing_output_marks_module_unavailable(self, parameters):
        controller = MonitorController(parameters)
        controller.begin_run()
        n = parameters.n_modules
        estimator = controller.core.estimator
        feed_round(controller, 1.0, [None] + [0] * (n - 1))
        assert not estimator.available[0, 0]
        assert np.isnan(estimator.posterior[0, 0])
        feed_round(controller, 2.0, [0] * n)
        assert estimator.available[0, 0]
        assert estimator.posterior[0, 0] == 0.0

    def test_metrics_observe_rounds_and_transitions(self, parameters):
        controller = MonitorController(parameters)
        controller.begin_run()
        n = parameters.n_modules
        feed_round(controller, 1.0, [0] * n)
        controller.notify_transition(2.0, 0, "compromise")
        summary = controller.summary()
        assert summary.rounds == 1
        assert summary.compromises == 1


class TestActiveControl:
    def make_threshold_controller(self, parameters):
        controller = MonitorController(
            parameters,
            MonitorConfig(mode="threshold", bound=0.9, detection_threshold=0.9),
        )
        controller.begin_run()
        return controller

    def test_commands_wait_for_budget(self, parameters):
        controller = self.make_threshold_controller(parameters)
        n = parameters.n_modules
        # make module n-1 thoroughly suspect before any tick: no tokens yet
        commands = []
        for i in range(30):
            commands += feed_round(
                controller, float(i + 1), [0] * (n - 1) + [7]
            )
        assert commands == []
        # first tick funds exactly r = 1 rejuvenation of the suspect
        assert controller.on_tick(600.0) == [n - 1]
        # the victim is now down and cannot be selected again
        assert controller.on_tick(1200.0) == []

    def test_round_can_trigger_once_funded(self, parameters):
        controller = self.make_threshold_controller(parameters)
        n = parameters.n_modules
        controller.on_tick(600.0)  # accrue one token, nobody suspect yet
        commands = []
        for i in range(30):
            commands += feed_round(
                controller, 600.0 + float(i + 1), [0] * (n - 1) + [7]
            )
        assert commands == [n - 1]

    def test_targeted_policy_spends_tick_allowance(self, parameters):
        controller = MonitorController(parameters, MonitorConfig(mode="targeted"))
        controller.begin_run()
        n = parameters.n_modules
        for i in range(30):
            feed_round(controller, float(i + 1), [0] * (n - 1) + [7])
        assert controller.on_tick(600.0) == [n - 1]

    def test_tick_availability_marks_faulted_modules(self, parameters):
        controller = self.make_threshold_controller(parameters)
        operational = [True] * parameters.n_modules
        operational[2] = False
        controller.on_tick(600.0, operational)
        assert not controller.core.estimator.available[0, 2]
        assert np.isnan(controller.core.estimator.posterior[0, 2])

    def test_begin_run_restores_fresh_state(self, parameters):
        controller = self.make_threshold_controller(parameters)
        n = parameters.n_modules
        for i in range(30):
            feed_round(controller, float(i + 1), [0] * (n - 1) + [7])
        controller.on_tick(600.0)
        controller.begin_run()
        assert controller.core.tokens[0] == 0
        assert controller.core.estimator.posterior[0, n - 1] == 0.0
        assert controller.summary().rounds == 0

