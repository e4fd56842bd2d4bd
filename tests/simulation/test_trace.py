"""Tests for the measured census and its comparison with the analytic π."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs.metrics import registry_override
from repro.perception.parameters import PerceptionParameters
from repro.perception.statemap import ModuleCounts
from repro.simulation import BatchConfig, simulate_batch
from repro.simulation.modules import MLModule, module_census
from repro.simulation.trace import compare_with_analytic


def census_of(n, counts):
    """A ``(n+1, n+1)`` census array from ``{ModuleCounts: count}``."""
    census = np.zeros((n + 1, n + 1), dtype=np.int64)
    for state, count in counts.items():
        census[state.healthy, state.compromised] += count
    return census


def empirical(comparison):
    return {state: e for state, e, _ in comparison.rows if e}


def run(parameters, **options):
    base = dict(parameters=parameters, groups=64, rounds=200, seed=1)
    base.update(options)
    with registry_override():
        return simulate_batch(BatchConfig(**base))


class TestModuleCensus:
    def test_all_healthy(self):
        modules = [MLModule(i) for i in range(4)]
        assert module_census(modules) == ModuleCounts(4, 0, 0)

    def test_mixed_states(self):
        modules = [MLModule(i) for i in range(5)]
        modules[0].compromise()
        modules[1].compromise()
        modules[1].fail()
        modules[2].start_rejuvenation()
        assert module_census(modules) == ModuleCounts(2, 1, 2)


class TestStateOccupancy:
    def test_record_and_fractions(self):
        parameters = PerceptionParameters.four_version_defaults()
        census = census_of(
            4, {ModuleCounts(4, 0, 0): 3, ModuleCounts(3, 1, 0): 1}
        )
        census[4, 0] += 1
        fractions = empirical(compare_with_analytic(census, parameters))
        assert fractions[ModuleCounts(4, 0, 0)] == pytest.approx(0.8)
        assert fractions[ModuleCounts(3, 1, 0)] == pytest.approx(0.2)

    def test_zero_duration_ignored(self):
        parameters = PerceptionParameters.four_version_defaults()
        census = census_of(4, {ModuleCounts(4, 0, 0): 5})
        assert empirical(compare_with_analytic(census, parameters)) == {
            ModuleCounts(4, 0, 0): 1.0
        }

    def test_negative_duration_rejected(self):
        parameters = PerceptionParameters.four_version_defaults()
        census = census_of(4, {ModuleCounts(4, 0, 0): 5})
        census[3, 1] = -1
        with pytest.raises(SimulationError, match="non-negative"):
            compare_with_analytic(census, parameters)


class TestCompareWithAnalytic:
    def test_empty_occupancy_rejected(self):
        with pytest.raises(SimulationError, match="empty"):
            compare_with_analytic(
                np.zeros((5, 5), dtype=np.int64),
                PerceptionParameters.four_version_defaults(),
            )

    def test_exact_match_zero_distance(self):
        """Feeding the analytic distribution back gives distance ~0."""
        from repro.perception.evaluation import evaluate

        parameters = PerceptionParameters.four_version_defaults()
        analytic = evaluate(parameters).state_probabilities
        census = census_of(
            4,
            {
                state: round(probability * 1e12)
                for state, probability in analytic.items()
            },
        )
        comparison = compare_with_analytic(census, parameters)
        assert comparison.total_variation_distance < 1e-9

    def test_runtime_occupancy_close_to_analytic(self):
        parameters = PerceptionParameters.four_version_defaults()
        report = run(
            parameters,
            groups=256,
            rounds=5000,
            warmup_rounds=1000,
            request_period=10.0,
        )
        comparison = compare_with_analytic(report.census, parameters)
        assert comparison.total_variation_distance < 0.05

    def test_render(self):
        parameters = PerceptionParameters.four_version_defaults()
        census = census_of(4, {ModuleCounts(4, 0, 0): 10})
        text = compare_with_analytic(census, parameters).render(limit=3)
        assert "total variation distance" in text
        assert "(4, 0, 0)" in text

    def test_census_shape_must_match_pool(self):
        with pytest.raises(SimulationError, match="shape"):
            compare_with_analytic(
                np.ones((7, 7), dtype=np.int64),
                PerceptionParameters.four_version_defaults(),
            )

    def test_occupancy_total_matches_duration(self):
        parameters = PerceptionParameters.four_version_defaults()
        report = run(parameters, request_period=10.0, warmup_rounds=10)
        assert report.census.dtype == np.int64
        assert report.census.shape == (5, 5)
        assert report.census.sum() == report.requests == 64 * 190
