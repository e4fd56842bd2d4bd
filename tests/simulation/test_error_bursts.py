"""Tests for consecutive-error burst accounting over recorded outcomes."""

import numpy as np

from repro.obs.metrics import registry_override
from repro.perception.parameters import PerceptionParameters
from repro.simulation import BatchConfig, error_bursts, simulate_batch
from repro.simulation.batch.voter import (
    OUTCOME_CORRECT,
    OUTCOME_ERROR,
    OUTCOME_INCONCLUSIVE,
)


def run(
    params, *, seed, groups=16, rounds=3000, warmup_rounds=0, stationary=False
):
    config = BatchConfig(
        parameters=params,
        groups=groups,
        rounds=rounds,
        warmup_rounds=warmup_rounds,
        request_period=1.0,
        seed=seed,
        record_outcomes=True,
    )
    if stationary:
        config = config.with_stationary_init()
    with registry_override():
        report = simulate_batch(config)
    return report, error_bursts(report.outcomes[warmup_rounds:])


def scan_bursts(outcomes):
    """Column-by-column scalar scan: the histogram's oracle."""
    bursts = {}
    for column in outcomes.T:
        run_length = 0
        for code in list(column) + [OUTCOME_CORRECT]:
            if code == OUTCOME_ERROR:
                run_length += 1
            elif run_length:
                bursts[run_length] = bursts.get(run_length, 0) + 1
                run_length = 0
    return bursts


def mean_length(bursts):
    return sum(length * count for length, count in bursts.items()) / sum(
        bursts.values()
    )


class TestErrorBursts:
    def test_no_errors_no_bursts(self):
        params = PerceptionParameters.four_version_defaults(p=0.0, p_prime=0.0)
        _, bursts = run(params, seed=0, rounds=2000)
        assert bursts == {}

    def test_burst_counts_sum_to_errors(self):
        params = PerceptionParameters.four_version_defaults()
        report, bursts = run(params, seed=1, warmup_rounds=500)
        total_from_bursts = sum(
            length * count for length, count in bursts.items()
        )
        assert total_from_bursts == report.errors > 0

    def test_longest_burst_is_histogram_max(self):
        params = PerceptionParameters.four_version_defaults()
        report, bursts = run(params, seed=2)
        assert bursts == scan_bursts(report.outcomes)
        # runs never span two groups, and inconclusive rounds end a run
        outcomes = np.array(
            [
                [OUTCOME_ERROR, OUTCOME_ERROR],
                [OUTCOME_ERROR, OUTCOME_INCONCLUSIVE],
                [OUTCOME_INCONCLUSIVE, OUTCOME_ERROR],
                [OUTCOME_ERROR, OUTCOME_ERROR],
            ],
            dtype=np.int8,
        )
        assert error_bursts(outcomes) == scan_bursts(outcomes) == {
            1: 2,
            2: 2,
        }
        assert max(error_bursts(outcomes)) == 2

    def test_degraded_system_has_long_bursts(self):
        """With all modules compromised most of the time and p' close to 1,
        errors arrive in long runs: the burst structure captures the
        persistent-danger signature a plain error rate hides."""
        params = PerceptionParameters.four_version_defaults(p_prime=0.95)
        _, bursts = run(params, seed=3)
        assert max(bursts) > 10

    def test_rejuvenation_shortens_bursts(self):
        """Bursts persist until the state changes; rejuvenation cleanses
        compromised modules and cuts the typical run length (the mean —
        the longest run is one extreme draw and too noisy to order).
        Both systems start in their stationary census."""
        options = dict(seed=4, groups=32, rounds=4000, stationary=True)
        _, four = run(
            PerceptionParameters.four_version_defaults(p_prime=0.9), **options
        )
        _, six = run(
            PerceptionParameters.six_version_defaults(p_prime=0.9), **options
        )
        assert mean_length(six) < mean_length(four) / 2
