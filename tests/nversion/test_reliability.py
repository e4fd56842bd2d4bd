"""Tests for the per-state reliability functions R_{i,j,k}."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.engine.hashing import reliability_fingerprint
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

    def test_generalized_returns_a_copy_of_the_table(self):
        r = GeneralizedReliability(n_modules=6, threshold=4, p=P, p_prime=PP, alpha=A)
        matrix = reliability_matrix(r)
        np.testing.assert_array_equal(matrix, r.table)
        assert np.isnan(matrix[6, 1])
        matrix[0, 0] = 2.0  # a writable copy: the cached table is untouched
        assert r.table[0, 0] != 2.0


def _enumerated(r: GeneralizedReliability, healthy: int, compromised: int) -> float:
    """``R_{i,j,k}`` by per-state enumeration over the failure models.

    The independent witness for :attr:`GeneralizedReliability.table`:
    one state at a time, every probability from
    ``EgeDependentModel(paper_combinatorics=False)`` and
    ``CompromisedBinomialModel``, every sum a plain loop.
    """
    operational = healthy + compromised
    if operational < r.threshold:
        return 0.0
    healthy_model = EgeDependentModel(r.p, r.alpha, paper_combinatorics=False)
    compromised_model = CompromisedBinomialModel(r.p_prime)

    def wrong_between(low: int, high: int) -> float:
        """P(low <= compromised modules that err < high)."""
        return sum(
            compromised_model.probability_exactly(wrong, compromised)
            for wrong in range(max(0, low), min(compromised + 1, high))
        )

    if r.convention is OutputConvention.SAFE_SKIP:
        below = wrong_between(0, r.threshold)
        above = wrong_between(r.threshold, compromised + 1)
        success = below if below <= above else 1.0 - above
        lost = sum(
            healthy_model.probability_exactly(wrong, healthy)
            * wrong_between(r.threshold - wrong, r.threshold)
            for wrong in range(1, healthy + 1)
        )
        return max(0.0, success - lost)
    max_wrong = operational - r.threshold
    return sum(
        healthy_model.probability_exactly(wrong, healthy)
        * wrong_between(0, max_wrong - wrong + 1)
        for wrong in range(min(healthy, max_wrong) + 1)
    )


def _assert_table_matches_enumeration(r: GeneralizedReliability) -> None:
    n = r.n_modules
    expected = np.full((n + 1, n + 1), np.nan)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            expected[i, j] = _enumerated(r, i, j)
    table = r.table
    assert table.shape == (n + 1, n + 1)
    feasible = ~np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(table), ~feasible)
    np.testing.assert_array_max_ulp(table[feasible], expected[feasible], maxulp=4)


#: Thresholds per module count: the extremes, the BFT 2f+1 = 3 and a
#: majority-style middle.
WITNESS_THRESHOLDS = {
    4: (1, 3, 4),
    6: (2, 4, 6),
    12: (3, 7, 12),
    32: (3, 17),
    64: (3, 33, 64),
}


class TestTableWitness:
    """The numpy table equals the per-state enumeration within 4 ulp."""

    @pytest.mark.parametrize("convention", list(OutputConvention), ids=lambda c: c.value)
    @pytest.mark.parametrize(
        "n, threshold",
        [(n, t) for n, thresholds in WITNESS_THRESHOLDS.items() for t in thresholds],
    )
    def test_table_matches_enumeration(self, n, threshold, convention):
        r = GeneralizedReliability(
            n_modules=n, threshold=threshold, p=P, p_prime=PP, alpha=A,
            convention=convention,
        )
        _assert_table_matches_enumeration(r)

    @given(
        p=st.floats(0.0, 1.0),
        p_prime=st.floats(0.0, 1.0),
        alpha=st.floats(0.0, 1.0),
        n=st.integers(1, 12),
        threshold_fraction=st.floats(0.0, 1.0),
        convention=st.sampled_from(list(OutputConvention)),
    )
    @settings(max_examples=80, deadline=None)
    def test_table_matches_enumeration_everywhere(
        self, p, p_prime, alpha, n, threshold_fraction, convention
    ):
        threshold = 1 + round(threshold_fraction * (n - 1))
        r = GeneralizedReliability(
            n_modules=n, threshold=threshold, p=p, p_prime=p_prime, alpha=alpha,
            convention=convention,
        )
        _assert_table_matches_enumeration(r)

    def test_calls_look_up_the_table(self):
        r = GeneralizedReliability(n_modules=6, threshold=4, p=P, p_prime=PP, alpha=A)
        for i in range(7):
            for j in range(7 - i):
                value = r(i, j, 6 - i - j)
                assert type(value) is float
                assert value == r.table[i, j]

    def test_table_is_cached_read_only_and_not_a_field(self):
        r = GeneralizedReliability(n_modules=6, threshold=4, p=P, p_prime=PP, alpha=A)
        fresh = GeneralizedReliability(n_modules=6, threshold=4, p=P, p_prime=PP, alpha=A)
        before = (repr(r), reliability_fingerprint(r), hash(r))
        assert r.table is r.table
        assert not r.table.flags.writeable
        assert (repr(r), reliability_fingerprint(r), hash(r)) == before
        assert r == fresh

    def test_calls_still_validate_the_state(self):
        r = GeneralizedReliability(n_modules=6, threshold=4, p=P, p_prime=PP, alpha=A)
        with pytest.raises(ParameterError):
            r(4, 1, 0)
        with pytest.raises(ParameterError):
            r(7, -1, 0)

    def test_values_gather_what_calls_return(self):
        r = GeneralizedReliability(n_modules=6, threshold=4, p=P, p_prime=PP, alpha=A)
        states = np.array(
            [(i, j, 6 - i - j) for i in range(7) for j in range(7 - i)], dtype=np.int64
        )
        expected = [r(*state) for state in states.tolist()]
        assert r.values(states).tolist() == expected
        assert r.values(np.empty((0, 3), dtype=np.int64)).shape == (0,)

    def test_values_validate_every_state_as_a_call_does(self):
        r = GeneralizedReliability(n_modules=6, threshold=4, p=P, p_prime=PP, alpha=A)
        for bad in ((4, 1, 0), (7, -1, 0)):
            with pytest.raises(ParameterError) as from_call:
                r(*bad)
            with pytest.raises(ParameterError) as from_values:
                r.values(np.array([(3, 2, 1), bad], dtype=np.int64))
            assert str(from_values.value) == str(from_call.value)
