"""Per-state reliability functions ``R_{i,j,k}`` (paper §IV-D + appendices).

A system state is a triple ``(i, j, k)``: ``i`` healthy modules, ``j``
compromised modules and ``k`` non-operational (or rejuvenating) modules,
with ``i + j + k = N``.  The reliability of a state is one minus the
probability of a *perception error* — at least ``threshold`` modules
outputting incorrectly — and zero for states in which the voter can no
longer assemble enough outputs (``k`` above the tolerated budget).

Three implementations are provided:

* :class:`PaperFourVersionReliability` — the nine formulas of Appendix A
  (N=4, f=1, no rejuvenation, threshold 2f+1 = 3), verbatim;
* :class:`PaperSixVersionReliability` — the eighteen formulas of
  Appendix B (N=6, f=1, r=1, threshold 2f+r+1 = 4), verbatim —
  including the paper's three typographical slips, reproduced or
  corrected via ``corrected=True`` (see DESIGN.md §3);
* :class:`GeneralizedReliability` — any (N, threshold) with a clean
  combinatorial enumeration over healthy/compromised failure counts and
  a choice of output convention (safe-skip vs strict-correct).

All three are callables ``(i, j, k) -> float`` implementing the
:class:`ReliabilityFunction` protocol consumed by the evaluation
pipeline in :mod:`repro.perception.evaluation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.errors import ParameterError
from repro.nversion.conventions import OutputConvention
from repro.nversion.failure_models import (
    CompromisedBinomialModel,
    EgeDependentModel,
)
from repro.utils.validation import (
    check_non_negative_int,
    check_positive_int,
    check_probability,
)


class ReliabilityFunction(Protocol):
    """Callable protocol: state reliability ``R_{i,j,k}``."""

    n_modules: int

    def __call__(self, healthy: int, compromised: int, unavailable: int) -> float:
        """Reliability of the state (healthy, compromised, unavailable)."""
        ...  # pragma: no cover - protocol


def _check_state(n: int, i: int, j: int, k: int) -> None:
    check_non_negative_int("healthy", i)
    check_non_negative_int("compromised", j)
    check_non_negative_int("unavailable", k)
    if i + j + k != n:
        raise ParameterError(
            f"state ({i}, {j}, {k}) does not sum to the module count {n}"
        )


@dataclass(frozen=True)
class PaperFourVersionReliability:
    """Appendix A: four-version system, f=1, threshold 3, states k <= 1."""

    p: float
    p_prime: float
    alpha: float
    n_modules: int = field(default=4, init=False)

    def __post_init__(self) -> None:
        check_probability("p", self.p)
        check_probability("p_prime", self.p_prime)
        check_probability("alpha", self.alpha)

    def __call__(self, healthy: int, compromised: int, unavailable: int) -> float:
        _check_state(4, healthy, compromised, unavailable)
        p, q, a = self.p, self.p_prime, self.alpha
        formulas = {
            (4, 0, 0): 1 - (p * a**3 + 4 * p * a**2 * (1 - a)),
            (3, 1, 0): 1 - (p * a**2 + 3 * p * a * (1 - a) * q),
            (3, 0, 1): 1 - p * a**2,
            (2, 2, 0): 1 - (p * q**2 + 2 * p * a * q * (1 - q)),
            (2, 1, 1): 1 - p * a * q,
            (1, 3, 0): 1 - (q**3 + 3 * p * q**2 * (1 - q)),
            (1, 2, 1): 1 - p * q**2,
            # The paper prints coefficient 3 here; the binomial C(4,3)
            # would be 4 (cf. the six-version R_{0,6,0} using C(6,5)=6).
            (0, 4, 0): 1 - (q**4 + 3 * q**3 * (1 - q)),
            (0, 3, 1): 1 - q**3,
        }
        return formulas.get((healthy, compromised, unavailable), 0.0)


@dataclass(frozen=True)
class PaperSixVersionReliability:
    """Appendix B: six-version system, f=1, r=1, threshold 4, states k <= 2.

    Parameters
    ----------
    corrected:
        When true, fix the paper's three typographical slips:
        the duplicated ``2p(1-α)p'⁴`` term in ``R_{2,4,0}`` is dropped,
        the missing ``(m_h=4, m_c=0)`` term ``pα³(1-p')²`` is added to
        ``R_{4,2,0}``, and ``R_{0,4,0}``-style coefficients are already
        correct in the six-version appendix.  Defaults to false
        (verbatim reproduction).
    """

    p: float
    p_prime: float
    alpha: float
    corrected: bool = False
    n_modules: int = field(default=6, init=False)

    def __post_init__(self) -> None:
        check_probability("p", self.p)
        check_probability("p_prime", self.p_prime)
        check_probability("alpha", self.alpha)

    def __call__(self, healthy: int, compromised: int, unavailable: int) -> float:
        _check_state(6, healthy, compromised, unavailable)
        p, q, a = self.p, self.p_prime, self.alpha
        r420 = (
            p * a**3 * q**2
            + 2 * p * a**3 * q * (1 - q)
            + 4 * p * a**2 * (1 - a) * q**2
            + 8 * p * a**2 * (1 - a) * q * (1 - q)
            + 6 * p * a * (1 - a) ** 2 * q**2
        )
        if self.corrected:
            r420 += p * a**3 * (1 - q) ** 2
        r240 = (
            p * a * q**4
            + 4 * p * a * q**3 * (1 - q)
            + 2 * p * (1 - a) * q**4
            + 6 * p * a * q**2 * (1 - q) ** 2
            + 8 * p * (1 - a) * q**3 * (1 - q)
        )
        if not self.corrected:
            r240 += 2 * p * (1 - a) * q**4  # duplicated term, printed twice
        formulas = {
            (6, 0, 0): 1
            - (p * a**5 + 6 * p * a**4 * (1 - a) + 15 * p * a**3 * (1 - a) ** 2),
            (5, 1, 0): 1
            - (p * a**4 + 5 * p * a**3 * (1 - a) + 10 * p * a**2 * (1 - a) ** 2 * q),
            (5, 0, 1): 1 - (p * a**4 + 5 * p * a**3 * (1 - a)),
            (4, 2, 0): 1 - r420,
            (4, 1, 1): 1 - (p * a**3 + 4 * p * a**2 * (1 - a) * q),
            (4, 0, 2): 1 - p * a**3,
            (3, 3, 0): 1
            - (
                p * a**2 * q**3
                + 3 * p * a**2 * q**2 * (1 - q)
                + 3 * p * a * (1 - a) * q**3
                + 3 * p * a**2 * q * (1 - q) ** 2
                + 9 * p * a * (1 - a) * q**2 * (1 - q)
                + 3 * p * (1 - a) ** 2 * q**3
            ),
            (3, 2, 1): 1
            - (
                p * a**2 * q**2
                + 2 * p * a**2 * q * (1 - q)
                + 3 * p * a * (1 - a) * q**2
            ),
            (3, 1, 2): 1 - p * a**2 * q,
            (2, 4, 0): 1 - r240,
            (2, 3, 1): 1
            - (p * a * q**3 + 3 * p * a * q**2 * (1 - q) + 2 * p * (1 - a) * q**3),
            (2, 2, 2): 1 - p * a * q**2,
            (1, 5, 0): 1 - (q**5 + 5 * q**4 * (1 - q) + 10 * p * q**3 * (1 - q) ** 2),
            (1, 4, 1): 1 - (q**4 + 4 * p * q**3 * (1 - q)),
            (1, 3, 2): 1 - p * q**3,
            (0, 6, 0): 1 - (q**6 + 6 * q**5 * (1 - q) + 15 * q**4 * (1 - q) ** 2),
            (0, 5, 1): 1 - (q**5 + 5 * q**4 * (1 - q)),
            (0, 4, 2): 1 - q**4,
        }
        return formulas.get((healthy, compromised, unavailable), 0.0)


@dataclass(frozen=True)
class GeneralizedReliability:
    """Reliability of any (N, threshold) state via exact enumeration.

    The number of wrong healthy outputs follows the *normalized* Ege
    dependent model; wrong compromised outputs are Binomial(j, p').  The
    two are independent.  Under ``SAFE_SKIP``::

        R = 0                        if i + j < threshold (no decision)
        R = 1 - P(wrong >= threshold) otherwise
          = Σ_h P(h healthy wrong) · P(compromised wrong < threshold - h)

    evaluated from the success terms on the second line rather than as
    ``1 - P(error)``, so a state whose error probability is within
    rounding of 1 reads a small nonnegative value instead of a cancelled
    ``1 - (1 ± ε)``, and R is non-increasing in ``p`` bit for bit;

    under ``STRICT_CORRECT``::

        R = P(correct >= threshold)   with correct = (i+j) - wrong.
    """

    n_modules: int
    threshold: int
    p: float
    p_prime: float
    alpha: float
    convention: OutputConvention = OutputConvention.SAFE_SKIP

    def __post_init__(self) -> None:
        check_positive_int("n_modules", self.n_modules)
        check_positive_int("threshold", self.threshold)
        if self.threshold > self.n_modules:
            raise ParameterError(
                f"threshold {self.threshold} exceeds module count {self.n_modules}"
            )
        check_probability("p", self.p)
        check_probability("p_prime", self.p_prime)
        check_probability("alpha", self.alpha)

    def __call__(self, healthy: int, compromised: int, unavailable: int) -> float:
        _check_state(self.n_modules, healthy, compromised, unavailable)
        operational = healthy + compromised
        if operational < self.threshold:
            return 0.0

        healthy_model = EgeDependentModel(
            self.p, self.alpha, paper_combinatorics=False
        )
        compromised_model = CompromisedBinomialModel(self.p_prime)

        if self.convention is OutputConvention.SAFE_SKIP:

            def wrong_between(low: int, high: int) -> float:
                """P(low <= compromised modules that err < high)."""
                return sum(
                    compromised_model.probability_exactly(wrong, compromised)
                    for wrong in range(max(0, low), min(compromised + 1, high))
                )

            # P(compromised wrong < threshold) from its smaller tail, so it
            # is accurate both near 0 and near 1
            below = wrong_between(0, self.threshold)
            above = wrong_between(self.threshold, compromised + 1)
            success = below if below <= above else 1.0 - above
            # Σ_h P(h) · P(compromised wrong < threshold - h), rewritten with
            # Σ_h P(h) = 1 as P(wrong < threshold) minus nonnegative losses.
            # The losses grow with p, so R is non-increasing in p bit for
            # bit; they sum to at most p times the first term, and the
            # clamp only absorbs rounding as p -> 1.
            lost = sum(
                healthy_model.probability_exactly(healthy_wrong, healthy)
                * wrong_between(self.threshold - healthy_wrong, self.threshold)
                for healthy_wrong in range(1, healthy + 1)
            )
            return max(0.0, success - lost)

        # STRICT_CORRECT: at least `threshold` of the operational modules
        # must answer correctly.
        correct_probability = 0.0
        max_wrong = operational - self.threshold
        for healthy_wrong in range(min(healthy, max_wrong) + 1):
            ph = healthy_model.probability_exactly(healthy_wrong, healthy)
            if ph == 0.0:
                continue
            budget = max_wrong - healthy_wrong
            pc = sum(
                compromised_model.probability_exactly(wrong, compromised)
                for wrong in range(min(compromised, budget) + 1)
            )
            correct_probability += ph * pc
        return correct_probability


def reliability_matrix(function: ReliabilityFunction) -> np.ndarray:
    """The matrix ``R[i, j] = R_{i, j, N-i-j}`` (Eq. 2 / Eq. 3 layout).

    Rows index the healthy count ``i`` descending from N to 0 exactly as
    in the paper's printed matrices is *not* used — we keep the natural
    ascending order ``R[i, j]`` with ``i, j`` from 0 to N and NaN for
    infeasible combinations, which is friendlier for programmatic use.
    """
    n = function.n_modules
    matrix = np.full((n + 1, n + 1), np.nan)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            matrix[i, j] = function(i, j, n - i - j)
    return matrix
