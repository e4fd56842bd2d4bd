"""The perception simulator measured against the analytic model."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs.metrics import registry_override
from repro.perception.parameters import PerceptionParameters
from repro.simulation import AgreementModel, BatchConfig, simulate_batch
from repro.simulation.batch.voter import OUTCOME_ERROR


def run(parameters, **options):
    base = dict(
        parameters=parameters,
        groups=64,
        rounds=500,
        request_period=2.0,
        seed=0,
    )
    base.update(options)
    with registry_override():
        return simulate_batch(BatchConfig(**base))


class TestConstruction:
    def test_rejects_single_label(self, four_version_parameters):
        with pytest.raises(SimulationError):
            BatchConfig(
                parameters=four_version_parameters,
                groups=1,
                rounds=10,
                n_labels=1,
            )

    def test_rejuvenator_only_when_configured(
        self, four_version_parameters, six_version_parameters
    ):
        four = run(four_version_parameters, rounds=400)
        six = run(six_version_parameters, rounds=400)
        assert four.transitions["rejuvenation-start"].sum() == 0
        assert six.transitions["rejuvenation-start"].sum() > 0


class TestPerfectModules:
    def test_no_errors_when_p_zero(self):
        params = PerceptionParameters.four_version_defaults(
            p=0.0, p_prime=0.0
        )
        report = run(params, rounds=1000, request_period=1.0)
        assert report.errors == 0
        assert report.reliability_safe_skip == 1.0


class TestReportAccounting:
    def test_outcomes_partition_requests(self, four_version_parameters):
        report = run(four_version_parameters, seed=1)
        assert report.correct + report.errors + report.inconclusive == report.requests
        assert report.requests == 64 * 500

    def test_warmup_excluded(self, four_version_parameters):
        report = run(four_version_parameters, seed=2, warmup_rounds=200)
        assert report.requests == 64 * 300

    def test_reliability_bounds(self, six_version_parameters):
        report = run(six_version_parameters, seed=3)
        assert 0.0 <= report.reliability_strict <= report.reliability_safe_skip <= 1.0


class TestAgainstAnalyticModel:
    def test_four_version_reliability_close(self, four_version_parameters):
        from repro.nversion.reliability import GeneralizedReliability
        from repro.perception.evaluation import evaluate

        general = GeneralizedReliability(
            n_modules=4, threshold=3,
            p=four_version_parameters.p,
            p_prime=four_version_parameters.p_prime,
            alpha=four_version_parameters.alpha,
        )
        analytic = evaluate(
            four_version_parameters, reliability=general
        ).expected_reliability
        config = BatchConfig(
            parameters=four_version_parameters,
            groups=2048,
            rounds=300,
            request_period=2.0,
            seed=7,
        ).with_stationary_init()
        with registry_override():
            report = simulate_batch(config)
        assert abs(report.reliability_safe_skip - analytic) < 0.025

    def test_rejuvenation_improves_empirical_reliability(self):
        """The paper's headline claim, measured on the executable system."""
        options = dict(groups=256, rounds=2000, warmup_rounds=500, seed=8)
        four = run(PerceptionParameters.four_version_defaults(), **options)
        six = run(PerceptionParameters.six_version_defaults(), **options)
        assert six.reliability_safe_skip > four.reliability_safe_skip


class TestPerLabelAgreement:
    def test_per_label_no_less_reliable(self, four_version_parameters):
        """Only identical wrong labels pool under per-label voting, so a
        per-label error is a worst-case error too — round by round, on
        the same seed (the vote does not feed back into the states)."""
        options = dict(groups=128, rounds=1000, seed=9, record_outcomes=True)
        worst = run(four_version_parameters, **options)
        per_label = run(
            four_version_parameters,
            agreement=AgreementModel.PER_LABEL,
            **options,
        )
        worst_errors = worst.outcomes == OUTCOME_ERROR
        per_label_errors = per_label.outcomes == OUTCOME_ERROR
        assert not (per_label_errors & ~worst_errors).any()
        assert np.array_equal(worst.census, per_label.census)
        assert per_label.errors < worst.errors
        assert per_label.reliability_safe_skip > worst.reliability_safe_skip
