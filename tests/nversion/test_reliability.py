"""Tests for the per-state reliability functions R_{i,j,k}."""

import math

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.nversion.conventions import OutputConvention
from repro.nversion.failure_models import CompromisedBinomialModel, EgeDependentModel
from repro.nversion.reliability import (
    GeneralizedReliability,
    PaperFourVersionReliability,
    PaperSixVersionReliability,
    reliability_matrix,
)

P, PP, A = 0.08, 0.5, 0.5


class TestPaperFourVersion:
    @pytest.fixture
    def r(self):
        return PaperFourVersionReliability(p=P, p_prime=PP, alpha=A)

    def test_appendix_a_values(self, r):
        """Hand-computed values of every Appendix A formula at defaults."""
        assert math.isclose(r(4, 0, 0), 1 - (P * A**3 + 4 * P * A**2 * (1 - A)))
        assert math.isclose(r(3, 1, 0), 1 - (P * A**2 + 3 * P * A * (1 - A) * PP))
        assert math.isclose(r(3, 0, 1), 1 - P * A**2)
        assert math.isclose(r(2, 2, 0), 1 - (P * PP**2 + 2 * P * A * PP * (1 - PP)))
        assert math.isclose(r(2, 1, 1), 1 - P * A * PP)
        assert math.isclose(r(1, 3, 0), 1 - (PP**3 + 3 * P * PP**2 * (1 - PP)))
        assert math.isclose(r(1, 2, 1), 1 - P * PP**2)
        assert math.isclose(r(0, 4, 0), 1 - (PP**4 + 3 * PP**3 * (1 - PP)))
        assert math.isclose(r(0, 3, 1), 1 - PP**3)

    def test_default_numeric_values(self, r):
        assert math.isclose(r(4, 0, 0), 0.95)
        assert math.isclose(r(1, 3, 0), 0.845)
        assert math.isclose(r(0, 4, 0), 0.75)

    def test_k_above_budget_is_zero(self, r):
        assert r(2, 0, 2) == 0.0
        assert r(0, 0, 4) == 0.0

    def test_invalid_state_sum_rejected(self, r):
        with pytest.raises(ParameterError):
            r(4, 1, 0)

    def test_all_values_are_probabilities(self, r):
        for i in range(5):
            for j in range(5 - i):
                value = r(i, j, 4 - i - j)
                assert 0.0 <= value <= 1.0


class TestPaperSixVersion:
    @pytest.fixture
    def r(self):
        return PaperSixVersionReliability(p=P, p_prime=PP, alpha=A)

    def test_selected_appendix_b_values(self, r):
        assert math.isclose(
            r(6, 0, 0),
            1 - (P * A**5 + 6 * P * A**4 * (1 - A) + 15 * P * A**3 * (1 - A) ** 2),
        )
        assert math.isclose(r(4, 0, 2), 1 - P * A**3)
        assert math.isclose(r(2, 2, 2), 1 - P * A * PP**2)
        assert math.isclose(r(0, 4, 2), 1 - PP**4)
        assert math.isclose(
            r(0, 6, 0),
            1 - (PP**6 + 6 * PP**5 * (1 - PP) + 15 * PP**4 * (1 - PP) ** 2),
        )

    def test_default_numeric_values(self, r):
        assert math.isclose(r(6, 0, 0), 0.945)
        assert math.isclose(r(0, 6, 0), 0.65625)

    def test_k_above_budget_is_zero(self, r):
        assert r(3, 0, 3) == 0.0
        assert r(0, 0, 6) == 0.0

    def test_corrected_mode_fixes_r240_duplicate(self):
        verbatim = PaperSixVersionReliability(p=P, p_prime=PP, alpha=A)
        corrected = PaperSixVersionReliability(
            p=P, p_prime=PP, alpha=A, corrected=True
        )
        # the duplicated 2p(1-a)q^4 term makes the verbatim error larger
        assert corrected(2, 4, 0) > verbatim(2, 4, 0)
        assert math.isclose(
            corrected(2, 4, 0) - verbatim(2, 4, 0), 2 * P * (1 - A) * PP**4
        )

    def test_corrected_mode_adds_r420_term(self):
        verbatim = PaperSixVersionReliability(p=P, p_prime=PP, alpha=A)
        corrected = PaperSixVersionReliability(
            p=P, p_prime=PP, alpha=A, corrected=True
        )
        assert math.isclose(
            verbatim(4, 2, 0) - corrected(4, 2, 0), P * A**3 * (1 - PP) ** 2
        )

    def test_all_values_are_probabilities(self, r):
        for i in range(7):
            for j in range(7 - i):
                value = r(i, j, 6 - i - j)
                assert 0.0 <= value <= 1.0


class TestGeneralized:
    def make(self, convention=OutputConvention.SAFE_SKIP, **kw):
        defaults = dict(n_modules=4, threshold=3, p=P, p_prime=PP, alpha=A)
        defaults.update(kw)
        return GeneralizedReliability(convention=convention, **defaults)

    def test_insufficient_operational_is_zero(self):
        r = self.make()
        assert r(1, 1, 2) == 0.0
        assert r(2, 0, 2) == 0.0

    def test_pure_compromised_binomial_tail(self):
        r = self.make()
        # (0, 4, 0): error iff >= 3 of 4 compromised wrong
        expected_error = sum(
            math.comb(4, m) * PP**m * (1 - PP) ** (4 - m) for m in (3, 4)
        )
        assert math.isclose(r(0, 4, 0), 1 - expected_error)

    def test_k_equal_one_pure_compromised(self):
        r = self.make()
        # (0, 3, 1): error iff all 3 wrong
        assert math.isclose(r(0, 3, 1), 1 - PP**3)

    def test_agrees_with_paper_where_formulas_are_clean(self):
        """States like (3,0,1) and (1,2,1) have unambiguous enumerations."""
        paper = PaperFourVersionReliability(p=P, p_prime=PP, alpha=A)
        general = self.make()
        assert math.isclose(general(0, 3, 1), paper(0, 3, 1))
        assert math.isclose(general(1, 2, 1), paper(1, 2, 1))

    def test_strict_correct_leq_safe_skip(self):
        safe = self.make()
        strict = self.make(convention=OutputConvention.STRICT_CORRECT)
        for i in range(5):
            for j in range(5 - i):
                assert strict(i, j, 4 - i - j) <= safe(i, j, 4 - i - j) + 1e-12

    def test_strict_correct_pure_healthy(self):
        strict = self.make(convention=OutputConvention.STRICT_CORRECT)
        # (4,0,0): correct iff <= 1 healthy wrong
        # normalized model: P(0)=1-p; P(1)=p*C(3,0)*a^0*(1-a)^3
        expected = (1 - P) + P * (1 - A) ** 3
        assert math.isclose(strict(4, 0, 0), expected)

    def test_perfect_modules_give_reliability_one(self):
        r = self.make(p=0.0, p_prime=0.0)
        assert r(4, 0, 0) == 1.0
        assert r(2, 2, 0) == 1.0

    def test_threshold_validation(self):
        with pytest.raises(ParameterError):
            GeneralizedReliability(n_modules=3, threshold=4, p=P, p_prime=PP, alpha=A)

    def test_six_version_configuration(self):
        r = GeneralizedReliability(
            n_modules=6, threshold=4, p=P, p_prime=PP, alpha=A
        )
        assert r(2, 1, 3) == 0.0  # only 3 operational, below threshold
        assert 0.0 < r(4, 2, 0) <= 1.0


def _one_minus_error(r: GeneralizedReliability, healthy: int, compromised: int) -> float:
    """The safe-skip value as ``1 - P(wrong >= threshold)`` (reference)."""
    if healthy + compromised < r.threshold:
        return 0.0
    healthy_model = EgeDependentModel(r.p, r.alpha, paper_combinatorics=False)
    compromised_model = CompromisedBinomialModel(r.p_prime)
    error = sum(
        healthy_model.probability_exactly(wrong, healthy)
        * compromised_model.probability_at_least(
            max(0, r.threshold - wrong), compromised
        )
        for wrong in range(healthy + 1)
    )
    return 1.0 - error


class TestGeneralizedSafeSkipRounding:
    """N=64, f=1: states whose error probability is within rounding of 1."""

    N = 64
    P_GRID = np.linspace(0.0, 1.0, 21)

    @pytest.fixture(scope="class")
    def values(self):
        states = [
            (i, j) for i in range(self.N + 1) for j in range(self.N + 1 - i)
        ]
        functions = [
            GeneralizedReliability(
                n_modules=self.N, threshold=3, p=float(p), p_prime=0.55, alpha=0.45
            )
            for p in self.P_GRID
        ]
        return states, functions, np.array(
            [[r(i, j, self.N - i - j) for i, j in states] for r in functions]
        )

    def test_every_state_value_is_a_probability(self, values):
        _, _, table = values
        assert table.min() >= 0.0
        assert table.max() <= 1.0

    def test_agrees_with_one_minus_error_probability(self, values):
        """Equal to ``1 - P(error)`` up to rounding and the Ege normalization.

        The new evaluation uses Σ_h P(h) = 1, the old one does not; in
        floating point the Ege probabilities for α = 0.45 sum to 1 only
        within ~4e-15·p at N=64 (``1 - α`` is rounded, then raised to
        powers up to 63), so the two may differ by that much beyond the
        1e-15 rounding bar.
        """
        states, functions, table = values
        for r, row in zip(functions, table):
            healthy_model = EgeDependentModel(r.p, r.alpha, paper_combinatorics=False)
            for (i, j), value in zip(states, row):
                normalization = abs(
                    sum(healthy_model.probability_exactly(m, i) for m in range(i + 1))
                    - 1.0
                )
                assert abs(value - _one_minus_error(r, i, j)) <= 1e-15 + normalization

    def test_non_increasing_in_p(self, values):
        _, _, table = values
        assert np.all(np.diff(table, axis=0) <= 0.0)


class TestReliabilityMatrix:
    def test_shape_and_nan_pattern(self):
        r = PaperFourVersionReliability(p=P, p_prime=PP, alpha=A)
        matrix = reliability_matrix(r)
        assert matrix.shape == (5, 5)
        assert np.isnan(matrix[4, 1])  # i + j > N infeasible
        assert not np.isnan(matrix[4, 0])

    def test_matches_function(self):
        r = PaperFourVersionReliability(p=P, p_prime=PP, alpha=A)
        matrix = reliability_matrix(r)
        assert matrix[3, 1] == r(3, 1, 0)
        assert matrix[0, 3] == r(0, 3, 1)
