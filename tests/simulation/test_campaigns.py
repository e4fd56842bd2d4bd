"""Tests for attack campaigns (time-varying compromise rates)."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.obs.metrics import registry_override
from repro.perception.parameters import PerceptionParameters
from repro.simulation import (
    AttackCampaign,
    AttackWave,
    BatchConfig,
    simulate_batch,
)


def run(params, *, seed, campaign=None, **options):
    base = dict(
        parameters=params,
        groups=64,
        rounds=2000,
        warmup_rounds=200,
        request_period=5.0,
        seed=seed,
        campaign=campaign,
    )
    base.update(options)
    with registry_override():
        return simulate_batch(BatchConfig(**base))


class TestAttackWave:
    def test_active_window_half_open(self):
        wave = AttackWave(start=10.0, end=20.0, intensity=5.0)
        assert wave.active_at(10.0)
        assert wave.active_at(19.999)
        assert not wave.active_at(20.0)
        assert not wave.active_at(9.999)

    def test_end_before_start_rejected(self):
        with pytest.raises(ParameterError):
            AttackWave(start=10.0, end=10.0, intensity=2.0)

    def test_non_positive_intensity_rejected(self):
        with pytest.raises(ParameterError):
            AttackWave(start=0.0, end=1.0, intensity=0.0)


class TestAttackCampaign:
    def test_multiplier_outside_waves_is_one(self):
        campaign = AttackCampaign(waves=(AttackWave(10.0, 20.0, 4.0),))
        assert campaign.multiplier_at(5.0) == 1.0
        assert campaign.multiplier_at(15.0) == 4.0

    def test_overlapping_waves_multiply(self):
        campaign = AttackCampaign(
            waves=(AttackWave(0.0, 10.0, 2.0), AttackWave(5.0, 15.0, 3.0))
        )
        assert campaign.multiplier_at(7.0) == 6.0

    def test_boundaries_sorted_unique(self):
        campaign = AttackCampaign(
            waves=(AttackWave(0.0, 10.0, 2.0), AttackWave(10.0, 20.0, 3.0))
        )
        assert campaign.boundaries() == [0.0, 10.0, 20.0]

    def test_empty_campaign_rejected(self):
        with pytest.raises(ParameterError):
            AttackCampaign(waves=())

    def test_periodic_constructor(self):
        campaign = AttackCampaign.periodic(
            period=100.0, burst_duration=20.0, intensity=5.0, horizon=250.0
        )
        assert len(campaign.waves) == 3
        assert campaign.multiplier_at(10.0) == 5.0
        assert campaign.multiplier_at(50.0) == 1.0

    def test_burst_longer_than_period_rejected(self):
        with pytest.raises(ParameterError):
            AttackCampaign.periodic(
                period=10.0, burst_duration=20.0, intensity=2.0, horizon=100.0
            )

    def test_average_multiplier(self):
        campaign = AttackCampaign.periodic(
            period=100.0, burst_duration=20.0, intensity=6.0, horizon=1000.0
        )
        # 20% of the time at 6x, 80% at 1x -> mean 2.0
        assert np.isclose(campaign.average_multiplier(1000.0), 2.0)


class TestRuntimeUnderCampaign:
    def test_intense_campaign_degrades_reliability(self):
        params = PerceptionParameters.four_version_defaults()
        quiet = run(params, seed=5)
        campaign = AttackCampaign.periodic(
            period=2000.0, burst_duration=1000.0, intensity=20.0, horizon=10000.0
        )
        attacked = run(params, seed=5, campaign=campaign)
        assert attacked.reliability_safe_skip < quiet.reliability_safe_skip
        assert (
            attacked.transitions["compromise"].sum()
            > quiet.transitions["compromise"].sum()
        )

    def test_unit_intensity_campaign_is_neutral(self):
        """A campaign multiplying by 1.0 fires the compromise channel with
        the unmodulated probability, so the trajectory is unchanged."""
        params = PerceptionParameters.four_version_defaults()
        campaign = AttackCampaign(waves=(AttackWave(0.0, 1e9, 1.0),))
        plain = run(params, seed=6, record_outcomes=True)
        modulated = run(params, seed=6, campaign=campaign, record_outcomes=True)
        np.testing.assert_array_equal(plain.outcomes, modulated.outcomes)
        np.testing.assert_array_equal(plain.census, modulated.census)

    def test_campaign_average_matches_constant_rate(self):
        """A bursty campaign and a constant rate with the same mean λc
        give comparable (not identical) long-run error rates."""
        params = PerceptionParameters.four_version_defaults()
        options = dict(rounds=4000, request_period=10.0)
        horizon = 4000 * 10.0
        campaign = AttackCampaign.periodic(
            period=1000.0, burst_duration=500.0, intensity=3.0,
            horizon=horizon,
        )
        mean_multiplier = campaign.average_multiplier(horizon)
        constant = run(
            params.replace(mttc=params.mttc / mean_multiplier),
            seed=7,
            **options,
        )
        bursty = run(params, seed=7, campaign=campaign, **options)
        assert abs(
            constant.reliability_safe_skip - bursty.reliability_safe_skip
        ) < 0.06
