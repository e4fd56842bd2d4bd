"""Tests for the Eq. 1 evaluation pipeline."""

import math

import numpy as np
import pytest

from repro.nversion.conventions import OutputConvention
from repro.nversion.reliability import (
    GeneralizedReliability,
    PaperFourVersionReliability,
    PaperSixVersionReliability,
)
from repro.engine.cache import cache_override
from repro.perception.evaluation import (
    Evaluation,
    build_net,
    default_reliability_function,
    evaluate,
)
from repro.perception.parameters import PerceptionParameters


class TestDefaultReliabilityFunction:
    def test_four_version_uses_appendix_a(self, four_version_parameters):
        fn = default_reliability_function(four_version_parameters)
        assert isinstance(fn, PaperFourVersionReliability)

    def test_six_version_uses_appendix_b(self, six_version_parameters):
        fn = default_reliability_function(six_version_parameters)
        assert isinstance(fn, PaperSixVersionReliability)

    def test_other_configurations_use_generalized(self):
        params = PerceptionParameters(n_modules=5, f=1, rejuvenation=False)
        fn = default_reliability_function(params)
        assert isinstance(fn, GeneralizedReliability)
        assert fn.threshold == 3

    def test_strict_convention_forces_generalized(self, four_version_parameters):
        fn = default_reliability_function(
            four_version_parameters, convention=OutputConvention.STRICT_CORRECT
        )
        assert isinstance(fn, GeneralizedReliability)


class TestEvaluate:
    def test_headline_four_version(self, four_version_parameters):
        result = evaluate(four_version_parameters)
        assert math.isclose(result.expected_reliability, 0.8223487, abs_tol=1e-6)

    def test_headline_six_version(self, six_version_parameters):
        result = evaluate(six_version_parameters)
        assert math.isclose(result.expected_reliability, 0.9430077, abs_tol=1e-6)

    def test_state_probabilities_sum_to_one(self, six_version_parameters):
        result = evaluate(six_version_parameters)
        assert np.isclose(sum(result.state_probabilities.values()), 1.0)

    def test_state_reliability_consistent_with_expected(self, four_version_parameters):
        result = evaluate(four_version_parameters)
        recomputed = sum(
            probability * result.state_reliability[state]
            for state, probability in result.state_probabilities.items()
        )
        assert np.isclose(recomputed, result.expected_reliability)

    def test_custom_reliability_function(self, four_version_parameters):
        result = evaluate(four_version_parameters, reliability=_AlwaysOne())
        assert np.isclose(result.expected_reliability, 1.0)

    def test_top_states_ranked(self, six_version_parameters):
        result = evaluate(six_version_parameters)
        top = result.top_states(3)
        probabilities = [probability for _, probability, _ in top]
        assert probabilities == sorted(probabilities, reverse=True)
        assert len(top) == 3

    def test_reliability_between_zero_and_one(self):
        for p_prime in (0.1, 0.5, 0.9):
            params = PerceptionParameters.six_version_defaults(p_prime=p_prime)
            value = evaluate(params).expected_reliability
            assert 0.0 <= value <= 1.0


class TestEvaluation:
    def test_build_net_dispatches_on_rejuvenation(
        self, four_version_parameters, six_version_parameters
    ):
        assert "Trc" not in build_net(four_version_parameters).transitions
        assert "Trc" in build_net(six_version_parameters).transitions

    def test_builds_and_evaluates_once(self, six_version_parameters):
        evaluation = Evaluation(six_version_parameters)
        assert evaluation.net is evaluation.net
        assert evaluation.result is evaluation.result

    def test_resolves_default_reliability_and_normalizes_options(
        self, six_version_parameters
    ):
        evaluation = Evaluation(
            six_version_parameters,
            build_options={"lost_ticks": True, "clock": "exponential"},
        )
        assert evaluation.reliability == default_reliability_function(
            six_version_parameters
        )
        assert evaluation.build_options == (
            ("clock", "exponential"),
            ("lost_ticks", True),
        )

    def test_key_covers_reliability_bound_and_route(self, six_version_parameters):
        base = Evaluation(six_version_parameters)
        variants = [
            Evaluation(six_version_parameters.replace(p=0.1)),
            Evaluation(six_version_parameters, max_states=1000),
            Evaluation(six_version_parameters, method="mrgp"),
            Evaluation(six_version_parameters, build_options={"clock": "exponential"}),
        ]
        assert len({base.key, *(variant.key for variant in variants)}) == 5

    def test_ad_hoc_reliability_has_no_key(self, four_version_parameters):
        assert Evaluation(four_version_parameters, _AlwaysOne()).key is None

    def test_reward_tier_is_stored_under_the_key(self, six_version_parameters):
        evaluation = Evaluation(six_version_parameters)
        with cache_override(enabled=True) as cache:
            value = evaluation.expected_reliability()
            assert cache.get(evaluation.key) == value
        assert value == evaluate(six_version_parameters).expected_reliability


class _AlwaysOne:
    """Trivial reliability function used to test custom injection."""

    n_modules = 4

    def __call__(self, healthy, compromised, unavailable):
        return 1.0
