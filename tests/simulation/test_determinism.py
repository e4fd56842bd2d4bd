"""Seed audit: one seed must pin down the entire trajectory.

Reproducibility is the backbone of the policy comparisons — the
adaptive policies are only comparable to the periodic baseline if the
fault history and request stream are literally the same.  These tests
lock down three layers:

* **replay** — the same seed replays byte-identically, with and without
  an attack campaign;
* **passivity** — attaching a passive monitor must not perturb the
  event or RNG streams (the ISSUE's trace-identity acceptance
  criterion);
* **provenance** — the seed is recorded on the report, the occupancy
  trace and the rendered occupancy comparison.
"""

import pytest

from repro.monitor import MonitorController
from repro.perception.parameters import PerceptionParameters
from repro.simulation.campaigns import AttackCampaign
from repro.simulation.runtime import PerceptionRuntime
from repro.simulation.trace import StateOccupancy, compare_with_analytic


def run_once(
    parameters,
    *,
    seed=42,
    monitored=False,
    campaign=None,
    duration=8000.0,
):
    monitor = (
        MonitorController(parameters) if monitored else None
    )
    runtime = PerceptionRuntime(
        parameters,
        request_period=1.0,
        seed=seed,
        campaign=campaign,
        monitor=monitor,
    )
    return runtime.run(duration, collect_occupancy=True)


def trace_of(report):
    """Everything that should be pinned by the seed."""
    return (
        report.requests,
        report.correct,
        report.errors,
        report.inconclusive,
        report.error_bursts,
        report.occupancy.dwell,
    )


@pytest.fixture
def parameters():
    return PerceptionParameters.six_version_defaults()


class TestReplay:
    def test_same_seed_identical_trace(self, parameters):
        first = run_once(parameters, seed=42)
        second = run_once(parameters, seed=42)
        assert trace_of(first) == trace_of(second)

    def test_different_seed_diverges(self, parameters):
        assert trace_of(run_once(parameters, seed=1)) != trace_of(
            run_once(parameters, seed=2)
        )

    def test_campaign_replays_identically(self, parameters):
        campaign = AttackCampaign.periodic(
            period=2000.0, burst_duration=500.0, intensity=6.0, horizon=8000.0
        )
        first = run_once(parameters, seed=5, campaign=campaign)
        second = run_once(parameters, seed=5, campaign=campaign)
        assert trace_of(first) == trace_of(second)


class TestPassiveMonitorIdentity:
    def test_monitored_run_reproduces_bare_trajectory(self, parameters):
        """ISSUE acceptance criterion: with monitoring attached, the
        periodic policy reproduces the existing rejuvenator's
        trajectory exactly — same seed, identical traces."""
        bare = run_once(parameters, seed=42, monitored=False)
        monitored = run_once(parameters, seed=42, monitored=True)
        assert trace_of(bare) == trace_of(monitored)

    def test_identity_holds_under_attack(self, parameters):
        campaign = AttackCampaign.periodic(
            period=2000.0, burst_duration=500.0, intensity=6.0, horizon=8000.0
        )
        bare = run_once(parameters, seed=9, campaign=campaign)
        monitored = run_once(
            parameters, seed=9, campaign=campaign, monitored=True
        )
        assert trace_of(bare) == trace_of(monitored)


class TestSeedProvenance:
    def test_report_and_occupancy_carry_seed(self, parameters):
        report = run_once(parameters, seed=42, duration=200.0)
        assert report.seed == 42
        assert report.occupancy.seed == 42

    def test_unseeded_run_records_none(self, parameters):
        report = run_once(parameters, seed=None, duration=200.0)
        assert report.seed is None
        assert report.occupancy.seed is None

    def test_comparison_renders_seed(self, parameters):
        report = run_once(parameters, seed=42, duration=2000.0)
        comparison = compare_with_analytic(report.occupancy, parameters)
        assert comparison.seed == 42
        assert "seed: 42" in comparison.render()

    def test_unseeded_comparison_says_so(self, parameters):
        occupancy = StateOccupancy()
        from repro.perception.statemap import ModuleCounts

        occupancy.record(ModuleCounts(6, 0, 0), 100.0)
        comparison = compare_with_analytic(occupancy, parameters)
        assert "seed: unseeded" in comparison.render()
