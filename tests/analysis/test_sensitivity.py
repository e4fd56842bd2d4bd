"""Tests for elasticity analysis."""

import pytest

from repro.analysis.sensitivity import elasticities
from repro.analysis.sweeps import SWEEPABLE
from repro.errors import ParameterError


class TestElasticities:
    def test_sorted_by_magnitude(self, four_version_parameters):
        results = elasticities(four_version_parameters, ["p", "p_prime", "mttr"])
        magnitudes = [abs(e.elasticity) for e in results]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_signs_match_physics(self, four_version_parameters):
        results = {
            e.parameter: e.elasticity
            for e in elasticities(four_version_parameters, ["p_prime", "mttc"])
        }
        assert results["p_prime"] < 0  # worse compromised accuracy hurts
        assert results["mttc"] > 0  # longer time-to-compromise helps

    def test_p_prime_dominates_mttr(self, four_version_parameters):
        """At the default operating point, compromised inaccuracy matters
        far more than the 3-second repair time."""
        results = {
            e.parameter: abs(e.elasticity)
            for e in elasticities(four_version_parameters, ["p_prime", "mttr"])
        }
        assert results["p_prime"] > 10 * results["mttr"]

    def test_unknown_parameter_rejected(self, four_version_parameters):
        with pytest.raises(ParameterError):
            elasticities(four_version_parameters, ["voltage"])

    @pytest.mark.parametrize("fixture", ["four_version_parameters", "six_version_parameters"])
    def test_one_steady_state_solve_per_call(self, fixture, request, monkeypatch):
        import repro.perception.evaluation as evaluation

        calls = []
        solve = evaluation.solve_steady_state

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(evaluation, "solve_steady_state", counted)
        results = elasticities(request.getfixturevalue(fixture), sorted(SWEEPABLE))
        assert len(results) == len(SWEEPABLE)
        assert len(calls) == 1

    def test_clockless_net_ignores_rejuvenation_parameters(
        self, four_version_parameters
    ):
        results = elasticities(
            four_version_parameters,
            ["rejuvenation_interval", "rejuvenation_time_per_module"],
        )
        assert [e.elasticity for e in results] == [0.0, 0.0]

    def test_base_values_recorded(self, four_version_parameters):
        (result,) = elasticities(four_version_parameters, ["mttc"])
        assert result.base_value == 1523.0
