"""Cross-validation: analytic solvers vs Monte-Carlo vs the NVP simulator.

Three independent implementations of the same stochastic system must
agree: the analytic CTMC/MRGP pipeline, the generic DSPN discrete-event
simulator, and the domain-level perception simulator (the batch runtime,
itself witnessed bit for bit by its scalar reference interpreter).
"""

import pytest

from repro.nversion.reliability import GeneralizedReliability
from repro.perception import PerceptionParameters, PerceptionSystem
from repro.perception.evaluation import evaluate
from repro.obs.metrics import registry_override
from repro.simulation import BatchConfig, simulate_batch


class TestDSPNSimulatorAgreement:
    def test_four_version(self, four_version_parameters):
        system = PerceptionSystem(four_version_parameters)
        analytic = system.expected_reliability()
        estimate = system.simulate(
            horizon=200000.0, warmup=3000.0, replications=8, seed=21
        )
        assert abs(estimate.mean - analytic) < max(3 * estimate.half_width, 0.02)

    def test_six_version_with_rejuvenation(self, six_version_parameters):
        system = PerceptionSystem(six_version_parameters)
        analytic = system.expected_reliability()
        estimate = system.simulate(
            horizon=100000.0, warmup=3000.0, replications=6, seed=22
        )
        assert abs(estimate.mean - analytic) < max(3 * estimate.half_width, 0.02)

    def test_state_probability_agreement(self, six_version_parameters):
        """Compare a state probability (not just the reward) across methods."""
        system = PerceptionSystem(six_version_parameters)
        from repro.dspn import simulate

        analytic_healthy = system.analyze().solution.probability(
            lambda m: m["Pmh"] == 6
        )
        estimate = simulate(
            system.net,
            reward=lambda m: float(m["Pmh"] == 6),
            horizon=100000.0,
            warmup=3000.0,
            replications=6,
            seed=23,
        )
        assert abs(estimate.mean - analytic_healthy) < max(
            3 * estimate.half_width, 0.05
        )


def measured_reliability(parameters, seed):
    """Safe-skip E[R] of a batch started in its stationary census."""
    config = BatchConfig(
        parameters=parameters,
        groups=2048,
        rounds=600,
        warmup_rounds=100,
        request_period=2.0,
        seed=seed,
    ).with_stationary_init()
    with registry_override():
        return simulate_batch(config).reliability_safe_skip


class TestRuntimeAgreement:
    """The NVP simulator measures per-request outcomes; its empirical
    reliability must match the analytic model built on the *same*
    failure model (the normalized dependent model)."""

    @pytest.mark.parametrize("seed", [31, 32])
    def test_four_version(self, four_version_parameters, seed):
        general = GeneralizedReliability(
            n_modules=4,
            threshold=3,
            p=four_version_parameters.p,
            p_prime=four_version_parameters.p_prime,
            alpha=four_version_parameters.alpha,
        )
        analytic = evaluate(
            four_version_parameters, reliability=general
        ).expected_reliability
        measured = measured_reliability(four_version_parameters, seed)
        assert abs(measured - analytic) < 0.03

    def test_six_version(self, six_version_parameters):
        general = GeneralizedReliability(
            n_modules=6,
            threshold=4,
            p=six_version_parameters.p,
            p_prime=six_version_parameters.p_prime,
            alpha=six_version_parameters.alpha,
        )
        analytic = evaluate(
            six_version_parameters, reliability=general
        ).expected_reliability
        measured = measured_reliability(six_version_parameters, 33)
        assert abs(measured - analytic) < 0.03


class TestEndToEndParameterDerivation:
    def test_mlsim_to_model_pipeline(self):
        """§V-A derivation feeding §V-B evaluation, end to end."""
        from repro.mlsim import estimate_parameters

        derived = estimate_parameters(seed=1)
        params = PerceptionParameters.six_version_defaults(
            p=derived.p, p_prime=derived.p_prime
        )
        reliability = evaluate(params).expected_reliability
        # the derived operating point sits near the paper's, so the
        # reliability must sit near the headline value
        assert abs(reliability - 0.943) < 0.05
