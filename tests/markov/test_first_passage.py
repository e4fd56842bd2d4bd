"""Tests for CTMC first-passage analysis."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from repro.dspn.ctmc_builder import build_ctmc
from repro.errors import SolverError
from repro.markov.ctmc import CTMC
from repro.markov.first_passage import (
    hitting_probability_by,
    mean_hitting_times,
    mean_time_to_hit,
    mean_time_to_predicate,
)
from repro.perception.metrics import mean_time_to_quorum_loss
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.parameters import PerceptionParameters
from repro.perception.statemap import module_counts
from repro.statespace import tangible_reachability


def chain_line():
    """a -> b -> c with rates 1 and 2 (and slow returns for irreducibility)."""
    return CTMC.from_rates(
        ["a", "b", "c"],
        {
            ("a", "b"): 1.0,
            ("b", "c"): 2.0,
            ("c", "a"): 0.1,
            ("b", "a"): 0.0001,
        },
    )


class TestMeanHittingTimes:
    def test_simple_line(self):
        chain = CTMC.from_rates(
            ["a", "b", "c"],
            {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "a"): 5.0},
        )
        times = mean_hitting_times(chain, ["c"])
        assert np.isclose(times["b"], 0.5)
        assert np.isclose(times["a"], 1.0 + 0.5)

    def test_target_states_excluded_from_result(self):
        chain = chain_line()
        times = mean_hitting_times(chain, ["c"])
        assert "c" not in times

    def test_empty_target_rejected(self):
        with pytest.raises(SolverError):
            mean_hitting_times(chain_line(), [])

    def test_full_target_rejected(self):
        with pytest.raises(SolverError):
            mean_hitting_times(chain_line(), ["a", "b", "c"])

    def test_unreachable_target_rejected(self):
        chain = CTMC(
            np.array(
                [
                    [-1.0, 1.0, 0.0],
                    [1.0, -1.0, 0.0],
                    [0.0, 0.0, 0.0],
                ]
            ),
            states=["a", "b", "island"],
        )
        with pytest.raises(SolverError):
            mean_hitting_times(chain, ["island"])

    def test_overflowing_time_raises(self):
        """Two 1e-308 rates in series: the time is 2e308, past float range."""
        chain = CTMC.from_rates(
            ["a", "b", "t"],
            {("a", "b"): 1e-308, ("b", "t"): 1e-308, ("t", "a"): 1.0},
        )
        with pytest.raises(SolverError, match="overflow"):
            mean_hitting_times(chain, ["t"])


class TestMeanTimeToHit:
    def test_weights_initial_distribution(self):
        chain = CTMC.from_rates(
            ["a", "b", "c"],
            {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "a"): 5.0},
        )
        value = mean_time_to_hit(chain, ["c"], [0.5, 0.5, 0.0])
        assert np.isclose(value, 0.5 * 1.5 + 0.5 * 0.5)

    def test_mass_on_target_contributes_zero(self):
        chain = chain_line()
        assert mean_time_to_hit(chain, ["c"], [0.0, 0.0, 1.0]) == 0.0

    def test_predicate_wrapper(self):
        chain = chain_line()
        direct = mean_time_to_hit(chain, ["c"], [1.0, 0.0, 0.0])
        predicate = mean_time_to_predicate(chain, lambda s: s == "c", [1.0, 0.0, 0.0])
        assert np.isclose(direct, predicate)


class TestHittingProbability:
    def test_zero_horizon(self):
        chain = chain_line()
        assert hitting_probability_by(chain, ["c"], [1.0, 0.0, 0.0], 0.0) == 0.0

    def test_long_horizon_approaches_one(self):
        chain = chain_line()
        value = hitting_probability_by(chain, ["c"], [1.0, 0.0, 0.0], 1000.0)
        assert value > 0.999

    def test_monotone_in_horizon(self):
        chain = chain_line()
        values = [
            hitting_probability_by(chain, ["c"], [1.0, 0.0, 0.0], t)
            for t in (0.5, 1.0, 2.0, 5.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_against_analytic_single_step(self):
        """a -> target with rate 1: P(hit by t) = 1 - exp(-t)."""
        chain = CTMC.from_rates(["a", "t"], {("a", "t"): 1.0, ("t", "a"): 0.5})
        for t in (0.1, 1.0, 3.0):
            value = hitting_probability_by(chain, ["t"], [1.0, 0.0], t)
            assert np.isclose(value, 1 - np.exp(-t), atol=1e-9)

    def test_generator_left_untouched(self):
        chain = chain_line()
        before = chain.generator.copy()
        hitting_probability_by(chain, ["c"], [1.0, 0.0, 0.0], 2.0)
        assert (chain.generator != before).nnz == 0

    def test_negative_horizon_rejected(self):
        with pytest.raises(SolverError):
            hitting_probability_by(chain_line(), ["c"], [1.0, 0.0, 0.0], -1.0)


def _exact_mean_time_to_hit(chain, targets, initial):
    """``initial · m`` with ``m`` solved in exact rational arithmetic.

    The off-diagonal float rates are taken exactly as ``Fraction``s and
    each diagonal is rebuilt exactly as minus their row sum, so the only
    rounding left is the final conversion to float.
    """
    target_set = {chain.index_of(state) for state in targets}
    transient = [i for i in range(chain.n_states) if i not in target_set]
    position = {state: k for k, state in enumerate(transient)}
    coo = sp.coo_array(chain.generator)
    rows = [dict() for _ in transient]  # sparse rows of D - A, plus rhs at -1
    for i, j, rate in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        if i == j or i in target_set:
            continue
        row = rows[position[i]]
        rate = Fraction(rate)
        row[position[i]] = row.get(position[i], Fraction(0)) + rate
        if j not in target_set:
            row[position[j]] = row.get(position[j], Fraction(0)) - rate
    for row in rows:
        row[-1] = Fraction(1)
    n = len(transient)
    for k in range(n):  # Gaussian elimination, no pivoting needed (M-matrix)
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            factor = rows[i].get(k)
            if not factor:
                continue
            factor /= pivot
            for j, value in pivot_row.items():
                if j == k:
                    continue
                rows[i][j] = rows[i].get(j, Fraction(0)) - factor * value
            del rows[i][k]
    times = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        total = row[-1] - sum(
            (value * times[j] for j, value in row.items() if j > k), Fraction(0)
        )
        times[k] = total / row[k]
    start = [Fraction(float(initial[state])) for state in transient]
    return float(sum((p * t for p, t in zip(start, times)), Fraction(0)))


@pytest.mark.parametrize("n_modules, f", [(4, 1), (6, 1), (10, 3), (16, 5), (20, 6)])
def test_quorum_loss_matches_exact_rational(n_modules, f):
    """Mean time to quorum loss agrees with an exact rational solve to 1e-12.

    The transient block is ill-conditioned (about 1e17 at N=20), so any
    LU of ``Q_TT`` misses here; the state reduction must not.
    """
    parameters = PerceptionParameters(n_modules=n_modules, f=f, rejuvenation=False)
    graph = tangible_reachability(build_no_rejuvenation_net(parameters))
    threshold = parameters.voting_scheme.threshold
    targets = [
        index
        for index, marking in enumerate(graph.markings)
        if module_counts(marking).operational < threshold
    ]
    exact = _exact_mean_time_to_hit(
        build_ctmc(graph), targets, graph.initial_distribution
    )
    value = mean_time_to_quorum_loss(parameters)
    assert np.isfinite(value) and value > 0
    assert abs(value - exact) <= 1e-12 * exact
