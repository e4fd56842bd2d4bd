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
from functools import cached_property
from math import comb
from typing import Protocol

import numpy as np

from repro.errors import ParameterError
from repro.nversion.conventions import OutputConvention
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

    evaluated as ``P(compromised wrong < threshold)`` minus the loss
    terms ``Σ_{h>=1} P(h) · P(threshold - h <= compromised wrong <
    threshold)`` rather than as ``1 - P(error)``, so a state whose error
    probability is within rounding of 1 reads a small nonnegative value
    instead of a cancelled ``1 - (1 ± ε)``.  ``p`` enters only as a
    factor of every loss term (``P(h) = C(i-1, h-1)·p·α^(h-1)·
    (1-α)^(i-h)`` for ``h >= 1``), so R is non-increasing in ``p`` bit
    for bit;

    under ``STRICT_CORRECT``::

        R = P(correct >= threshold)   with correct = (i+j) - wrong.

    The whole ``(N+1)×(N+1)`` :attr:`table` is built with numpy on first
    use and cached on the instance; a call is a validated lookup in it.
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
        return float(self.table[healthy, compromised])

    def values(self, states: np.ndarray) -> np.ndarray:
        """``R`` of each (i, j, k) row of an integer ``(m, 3)`` array, in
        one gather from :attr:`table`; the first row a call would reject
        raises the same :class:`ParameterError`."""
        invalid = (states < 0).any(axis=1) | (states.sum(axis=1) != self.n_modules)
        if invalid.any():
            _check_state(self.n_modules, *states[np.argmax(invalid)].tolist())
        return self.table[states[:, 0], states[:, 1]]

    @cached_property
    def table(self) -> np.ndarray:
        """Read-only ``R[i, j] = R_{i, j, N-i-j}``, NaN where ``i + j > N``.

        Every probability is formed and every sum accumulated in the
        order of the per-state enumeration (terms in ascending failure
        count), vectorized over all states at once.
        """
        n, threshold = self.n_modules, self.threshold
        counts = np.arange(n + 1)
        # binomial[a, b] = C(a, b), 0 for b > a
        binomial = np.array(
            [[comb(a, b) for b in range(n + 1)] for a in range(n + 1)], dtype=float
        )
        below_diagonal = np.maximum(counts[:, None] - counts, 0)

        def powers(base: float) -> np.ndarray:
            """``base**k`` for k = 0..N by the scalar power, which numpy's
            vectorized power can miss by an ulp."""
            return np.array([base**k for k in range(n + 1)])

        # compromised[j, w] = P(w of j compromised modules err), Binomial(j, p')
        compromised = (
            binomial
            * powers(self.p_prime)
            * powers(1.0 - self.p_prime)[below_diagonal]
        )
        # healthy[i, h] = P(h of i healthy modules err), normalized Ege model
        healthy = np.zeros((n + 1, n + 1))
        healthy[1:, 1:] = (
            binomial[:-1, :-1]
            * self.p
            * powers(self.alpha)[:-1]
            * powers(1.0 - self.alpha)[below_diagonal[:-1, :-1]]
        )
        operational = counts[:, None] + counts

        if self.convention is OutputConvention.SAFE_SKIP:

            def wrong_from(low: int) -> np.ndarray:
                """P(low <= compromised modules that err < threshold), per j."""
                return np.cumsum(compromised[:, low:threshold], axis=1)[:, -1]

            # P(compromised wrong < threshold) from its smaller tail, so it
            # is accurate both near 0 and near 1
            below = wrong_from(0)
            above = np.cumsum(compromised[:, threshold:], axis=1)[:, -1]
            success = np.where(below <= above, below, 1.0 - above)
            # Σ_h P(h) · P(compromised wrong < threshold - h), rewritten with
            # Σ_h P(h) = 1 as P(wrong < threshold) minus nonnegative losses.
            # p multiplies every loss term, so R is non-increasing in p bit
            # for bit; the losses sum to at most p times the first term,
            # and the clamp only absorbs rounding as p -> 1.
            lost = np.zeros((n + 1, n + 1))
            for wrong in range(1, n + 1):
                lost += healthy[:, wrong, None] * wrong_from(max(0, threshold - wrong))
            table = np.maximum(0.0, success - lost)
        else:
            # STRICT_CORRECT: at most operational - threshold modules may
            # err, `wrong` healthy ones and up to `budget` compromised ones.
            healthy[1:, 0] = 1.0 - self.p
            healthy[0, 0] = 1.0
            cumulative = np.cumsum(compromised, axis=1)
            table = np.zeros((n + 1, n + 1))
            for wrong in range(n + 1):
                budget = operational - threshold - wrong
                table += healthy[:, wrong, None] * np.where(
                    budget >= 0, cumulative[counts, np.clip(budget, 0, n)], 0.0
                )

        table[operational < threshold] = 0.0
        table[operational > n] = np.nan
        table.flags.writeable = False
        return table


def reliability_matrix(function: ReliabilityFunction) -> np.ndarray:
    """The matrix ``R[i, j] = R_{i, j, N-i-j}`` (Eq. 2 / Eq. 3 layout).

    Rows and columns index the healthy count ``i`` and the compromised
    count ``j`` in ascending order from 0 to N; the paper prints its
    matrices with ``i`` descending instead.  Infeasible combinations
    (``i + j > N``) are NaN.
    """
    n = function.n_modules
    matrix = np.full((n + 1, n + 1), np.nan)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            matrix[i, j] = function(i, j, n - i - j)
    return matrix
