"""Batch runtime surface: validation, determinism, accounting, events."""

import dataclasses

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.monitor.core import HealthMonitor
from repro.obs.events import event_stream
from repro.obs.metrics import registry_override
from repro.simulation import (
    AttackCampaign,
    BatchConfig,
    BatchMonitorConfig,
    simulate_batch,
)
from repro.simulation.batch import SeedSchedule, stationary_census_table
from repro.simulation.batch.runtime import recount_states


def _config(parameters, **overrides) -> BatchConfig:
    base = dict(
        parameters=parameters,
        groups=16,
        rounds=50,
        request_period=2.0,
        seed=3,
        chunk_size=8,
    )
    base.update(overrides)
    return BatchConfig(**base)


class TestValidation:
    @pytest.mark.parametrize(
        "overrides,match",
        [
            (dict(groups=0), "groups"),
            (dict(rounds=0), "rounds"),
            (dict(warmup_rounds=50), "warmup_rounds"),
            (dict(warmup_rounds=-1), "warmup_rounds"),
            (dict(chunk_size=0), "chunk_size"),
            (dict(n_labels=1), "n_labels"),
            (dict(request_period=0.0), "request_period"),
            (dict(seed=-1), "seed"),
            (dict(agreement="per-label"), "agreement"),
        ],
    )
    def test_rejected_configs(self, four_version_parameters, overrides, match):
        with pytest.raises(SimulationError, match=match):
            _config(four_version_parameters, **overrides)

    def test_clock_must_land_on_round_grid(self, six_version_parameters):
        with pytest.raises(SimulationError, match="integer multiple"):
            _config(six_version_parameters, request_period=7.0)

    def test_jobs_must_be_positive(self, four_version_parameters):
        with pytest.raises(SimulationError, match="jobs"):
            simulate_batch(_config(four_version_parameters), jobs=0)

    def test_seed_schedule_rejects_negative_seed(self):
        with pytest.raises(SimulationError, match="seed"):
            SeedSchedule(-1, 4)


class TestSeedSchedule:
    @pytest.mark.parametrize("groups,modules", [(1, 4), (17, 6), (5, 9)])
    def test_round_block_is_one_draw_per_field_in_field_order(
        self, groups, modules
    ):
        """The block is the generator's stream, one draw per field in
        field order."""
        draws = SeedSchedule(7, modules).round_draws(2, 11, groups)
        rng = np.random.default_rng([7, 2, 11])
        for field in dataclasses.fields(draws):
            array = getattr(draws, field.name)
            np.testing.assert_array_equal(array, rng.random(array.shape))
        assert draws.u_done.shape == (groups, modules)
        assert draws.u_channel.shape == (groups, 3)
        assert draws.u_truth.shape == (groups,)


class TestDeterminism:
    def test_same_config_same_trajectory(self, six_version_parameters):
        config = _config(
            six_version_parameters,
            record_outcomes=True,
            monitor=BatchMonitorConfig(mode="observe"),
        )
        with registry_override():
            first = simulate_batch(config)
        with registry_override():
            second = simulate_batch(config)
        np.testing.assert_array_equal(first.outcomes, second.outcomes)
        np.testing.assert_array_equal(
            first.monitor.posterior, second.monitor.posterior
        )

    def test_seed_changes_trajectory(self, four_version_parameters):
        with registry_override():
            a = simulate_batch(
                _config(four_version_parameters, rounds=200, seed=1)
            )
            b = simulate_batch(
                _config(four_version_parameters, rounds=200, seed=2)
            )
        assert not np.array_equal(a.per_group_errors, b.per_group_errors)


class TestAccounting:
    def test_outcomes_partition_requests(self, six_version_parameters):
        with registry_override():
            report = simulate_batch(_config(six_version_parameters))
        assert report.requests == 16 * 50
        assert (
            report.correct + report.errors + report.inconclusive
            == report.requests
        )
        assert 0.0 <= report.reliability_strict <= report.reliability_safe_skip <= 1.0
        assert report.throughput > 0

    def test_warmup_shrinks_measured_window(self, six_version_parameters):
        with registry_override():
            report = simulate_batch(
                _config(six_version_parameters, warmup_rounds=20)
            )
        assert report.requests == 16 * 30
        assert report.duration == pytest.approx(30 * 2.0)

    def test_recorded_outcome_matrix_shape(self, four_version_parameters):
        with registry_override():
            report = simulate_batch(
                _config(four_version_parameters, record_outcomes=True)
            )
        assert report.outcomes.shape == (50, 16)
        assert report.rejuvenations is None

    def test_requests_counter_counts_all_rounds(self, four_version_parameters):
        with registry_override() as registry:
            simulate_batch(_config(four_version_parameters, warmup_rounds=20))
        assert registry.counter("sim.batch.requests").value == 16 * 50

    def test_stationary_census_table_is_normalised(self, six_version_parameters):
        table = stationary_census_table(six_version_parameters)
        total = sum(probability for _, probability in table)
        assert total == pytest.approx(1.0)
        n = six_version_parameters.n_modules
        for (healthy, compromised, unavailable), _ in table:
            assert healthy + compromised + unavailable == n


class TestKeptCounts:
    """The runtime keeps per-group state counts instead of recounting
    ``state``; every monitored round hands them to the monitor beside
    the masks they count."""

    def test_state_counts_recounts_every_state_code(self):
        state = np.array([[0, 1, 1, 3], [2, 2, 0, 0]], dtype=np.int8)
        counts = recount_states(state)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, [[1, 2], [2, 0], [0, 2], [1, 0]])

    @pytest.mark.parametrize("mode", ["observe", "threshold", "targeted"])
    def test_counts_equal_a_recount_every_round(
        self, six_version_parameters, monkeypatch, mode
    ):
        observed = []
        observe_round = HealthMonitor.observe_round

        def recounting(self, now, participated, deviated, errors, **counts):
            np.testing.assert_array_equal(
                counts["participants"], np.count_nonzero(participated, axis=1)
            )
            np.testing.assert_array_equal(
                counts["deviations"], np.count_nonzero(deviated, axis=1)
            )
            observed.append(now)
            return observe_round(
                self, now, participated, deviated, errors, **counts
            )

        monkeypatch.setattr(HealthMonitor, "observe_round", recounting)
        config = _config(
            six_version_parameters,
            groups=64,
            rounds=600,
            chunk_size=64,
            campaign=AttackCampaign.periodic(
                period=400.0, burst_duration=100.0, intensity=8.0,
                horizon=1200.0,
            ),
            monitor=BatchMonitorConfig(mode=mode),
        ).with_stationary_init()
        with registry_override():
            report = simulate_batch(config)
        assert len(observed) == config.rounds
        assert report.transitions["rejuvenation-start"].sum() > 0


class TestLifecycleEvents:
    def test_start_chunk_done_sequence(self, six_version_parameters):
        config = _config(six_version_parameters)
        with registry_override(), event_stream() as stream:
            report = simulate_batch(config)
        kinds = [event["event"] for event in stream.events]
        assert kinds[0] == "sim.batch.start"
        assert kinds[-1] == "sim.batch.done"
        assert kinds.count("sim.batch.chunk") == config.chunk_count
        done = stream.events[-1]
        assert done["requests"] == report.requests
        assert done["errors"] == report.errors
        assert done["throughput"] > 0
