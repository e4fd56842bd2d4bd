"""Seed audit: one seed must pin down the entire trajectory.

Reproducibility is the backbone of the policy comparisons — the
adaptive policies are only comparable to the periodic baseline if the
fault history and request stream are literally the same.  These tests
lock down three layers:

* **replay** — the same seed replays byte-identically, with and without
  an attack campaign;
* **passivity** — attaching a passive monitor must not perturb the
  trajectory: outcomes, error bursts and the census are identical;
* **provenance** — the seed is recorded on the report and carried into
  the rendered census comparison.
"""

import numpy as np
import pytest

from repro.monitor import MonitorConfig
from repro.obs.metrics import registry_override
from repro.perception.parameters import PerceptionParameters
from repro.perception.statemap import ModuleCounts
from repro.simulation import BatchConfig, error_bursts, simulate_batch
from repro.simulation.campaigns import AttackCampaign
from repro.simulation.trace import compare_with_analytic


def run_once(
    parameters,
    *,
    seed=42,
    monitored=False,
    campaign=None,
    rounds=2000,
):
    config = BatchConfig(
        parameters=parameters,
        groups=4,
        rounds=rounds,
        request_period=2.0,
        seed=seed,
        campaign=campaign,
        monitor=MonitorConfig() if monitored else None,
        record_outcomes=True,
    )
    with registry_override():
        return simulate_batch(config)


def trace_of(report):
    """Everything that should be pinned by the seed."""
    return (
        report.requests,
        report.correct,
        report.errors,
        report.inconclusive,
        error_bursts(report.outcomes),
        report.outcomes.tobytes(),
        report.census.tobytes(),
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
        """With the passive monitor attached, the periodic clock keeps
        its trajectory exactly — same seed, identical traces, and the
        observe census equals the unmonitored census."""
        bare = run_once(parameters, seed=42, monitored=False)
        monitored = run_once(parameters, seed=42, monitored=True)
        assert trace_of(bare) == trace_of(monitored)
        np.testing.assert_array_equal(bare.census, monitored.census)

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
        report = run_once(parameters, seed=42, rounds=100)
        assert report.seed == 42
        comparison = compare_with_analytic(
            report.census, parameters, seed=report.seed
        )
        assert comparison.seed == 42

    def test_comparison_renders_seed(self, parameters):
        report = run_once(parameters, seed=42, rounds=1000)
        comparison = compare_with_analytic(
            report.census, parameters, seed=report.seed
        )
        assert "seed: 42" in comparison.render()

    def test_unseeded_comparison_says_so(self, parameters):
        census = np.zeros((7, 7), dtype=np.int64)
        census[6, 0] = 100
        comparison = compare_with_analytic(census, parameters)
        assert comparison.seed is None
        assert "seed: unseeded" in comparison.render()
        assert ModuleCounts(6, 0, 0) in [row[0] for row in comparison.rows]
