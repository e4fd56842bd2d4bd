"""The monitor layer's bridge onto the global obs registry and events."""

from __future__ import annotations

import pytest

from repro.monitor.controller import MonitorController
from repro.nversion.voting import VotingScheme
from repro.obs import event_stream, openmetrics, registry_override
from repro.perception.parameters import PerceptionParameters
from repro.simulation.voter import Voter


@pytest.fixture
def parameters():
    return PerceptionParameters.six_version_defaults()


def feed_round(controller, now, outputs, truth=0):
    voter = Voter(VotingScheme.bft_with_rejuvenation(1, 1))
    tally = voter.tally(outputs, truth)
    return controller.observe_round(now, outputs, tally, voter.classify(tally))


class TestControllerBridge:
    def test_rounds_feed_counters_and_disagreement_histogram(self, parameters):
        controller = MonitorController(parameters)
        controller.begin_run()
        n = parameters.n_modules
        with registry_override() as registry:
            for i in range(10):
                feed_round(controller, float(i + 1), [0] * (n - 1) + [7])
        assert registry.counter("monitor.rounds").value == 10.0
        assert registry.counter("monitor.estimator.updates").value == 10.0 * n
        histogram = registry.histogram("monitor.disagreement")
        assert histogram.count == 10
        # one deviating module out of n participants, every round
        assert histogram.max == pytest.approx(1.0 / n)

    def test_persistent_deviation_flags_module(self, parameters):
        controller = MonitorController(parameters)
        controller.begin_run()
        n = parameters.n_modules
        with registry_override() as registry, event_stream() as stream:
            for i in range(60):
                feed_round(controller, float(i + 1), [0] * (n - 1) + [7])
        assert registry.counter("monitor.flags").value >= 1.0
        flags = [e for e in stream.events if e["event"] == "monitor.flag"]
        assert flags and flags[0]["module"] == n - 1
        # ground truth never said "compromise", so the flag is a false alarm
        assert registry.counter("monitor.false_alarms").value >= 1.0


class TestMetricsBridge:
    def test_transitions_feed_counters_and_events(self, parameters):
        controller = MonitorController(parameters)
        with registry_override() as registry, event_stream() as stream:
            controller.notify_transition(10.0, 2, "compromise")
            controller.notify_transition(20.0, 2, "rejuvenation-start")
            controller.notify_transition(30.0, 4, "rejuvenation-start")
        assert registry.counter("monitor.compromises").value == 1.0
        assert registry.counter("monitor.rejuvenations").value == 2.0
        # module 4 was healthy: that rejuvenation was wasted
        assert registry.counter("monitor.rejuvenations.false").value == 1.0
        kinds = [e["event"] for e in stream.events]
        assert kinds == ["monitor.rejuvenation", "monitor.rejuvenation"]
        assert [e["module"] for e in stream.events] == [2, 4]

    def test_unflag_emits_only_when_flagged(self, parameters):
        controller = MonitorController(parameters)
        n = parameters.n_modules
        deviant = [0] * (n - 1) + [7]
        now = 0.0

        def rounds(outputs, count):
            nonlocal now
            for _ in range(count):
                now += 1.0
                feed_round(controller, now, outputs)

        with registry_override(), event_stream() as stream:
            rounds(deviant, 8)  # flag
            # a repair clears the flag (the module returns healthy), so
            # the posterior's later fall below the threshold is silent
            controller.notify_transition(now, n - 1, "repair")
            rounds([0] * n, 30)
            rounds(deviant, 8)  # flag again
            rounds([0] * n, 30)  # and this time unflag
        kinds = [e["event"] for e in stream.events]
        assert kinds == ["monitor.flag", "monitor.flag", "monitor.unflag"]

    def test_one_openmetrics_dump_covers_monitor_and_solver(self, parameters):
        """The satellite's point: a single exposition holds both layers."""
        from repro.engine import cache_override
        from repro.perception.architecture import PerceptionSystem

        controller = MonitorController(parameters)
        controller.begin_run()
        n = parameters.n_modules
        # uncached, or a warm solver cache skips statespace exploration
        with registry_override() as registry, cache_override(enabled=False):
            PerceptionSystem(parameters).analyze()  # solver-side counters
            feed_round(controller, 1.0, [0] * n)  # monitor-side counters
            text = openmetrics(registry)
        assert "repro_statespace_states_explored_total" in text
        assert "repro_monitor_rounds_total 1.0" in text
        assert "# TYPE repro_monitor_disagreement summary" in text
