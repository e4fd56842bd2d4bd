"""Golden tests against the paper's reported numbers (§V-B).

These are the headline regression tests of the reproduction: they pin
the full pipeline (net construction → reachability → vanishing
elimination → CTMC/MRGP solve → Eq. 1 rewards) to the values measured
during calibration and to the paper's claims.
"""

import math

import pytest

from repro.perception import PerceptionParameters, PerceptionSystem
from repro.perception.evaluation import evaluate

# The paper's printed values and the reproduction's calibrated values.
PAPER_4V = 0.8233477
PAPER_6V = 0.93464665
REPRO_4V = 0.8223487
REPRO_6V = 0.9430077


class TestHeadlineNumbers:
    def test_four_version_regression(self):
        value = evaluate(
            PerceptionParameters.four_version_defaults()
        ).expected_reliability
        assert math.isclose(value, REPRO_4V, abs_tol=1e-6)

    def test_four_version_within_paper_tolerance(self):
        value = evaluate(
            PerceptionParameters.four_version_defaults()
        ).expected_reliability
        assert abs(value - PAPER_4V) / PAPER_4V < 0.005  # 0.5 %

    def test_six_version_regression(self):
        value = evaluate(
            PerceptionParameters.six_version_defaults()
        ).expected_reliability
        assert math.isclose(value, REPRO_6V, abs_tol=1e-6)

    def test_six_version_within_paper_tolerance(self):
        value = evaluate(
            PerceptionParameters.six_version_defaults()
        ).expected_reliability
        assert abs(value - PAPER_6V) / PAPER_6V < 0.015  # 1.5 %

    def test_improvement_exceeds_thirteen_percent(self):
        """'a reliability improvement superior to 13%' (abstract)."""
        four = evaluate(PerceptionParameters.four_version_defaults())
        six = evaluate(PerceptionParameters.six_version_defaults())
        improvement = six.expected_reliability / four.expected_reliability - 1
        assert improvement > 0.13


class TestStateProbabilityStructure:
    def test_six_version_dominant_states(self):
        """Rejuvenation keeps most mass in (>=4 healthy) states."""
        result = evaluate(PerceptionParameters.six_version_defaults())
        healthy_mass = sum(
            probability
            for state, probability in result.state_probabilities.items()
            if state.healthy >= 4
        )
        assert healthy_mass > 0.8

    def test_four_version_mass_in_compromised_states(self):
        """Without rejuvenation most modules sit compromised (mttf >> mttc)."""
        result = evaluate(PerceptionParameters.four_version_defaults())
        compromised_mass = sum(
            probability
            for state, probability in result.state_probabilities.items()
            if state.compromised >= 3
        )
        assert compromised_mass > 0.5


class TestMethodDispatch:
    def test_four_version_is_ctmc(self):
        system = PerceptionSystem(PerceptionParameters.four_version_defaults())
        assert system.analyze().solution.method == "sparse"

    def test_six_version_is_mrgp(self):
        system = PerceptionSystem(PerceptionParameters.six_version_defaults())
        assert system.analyze().solution.method == "mrgp"
