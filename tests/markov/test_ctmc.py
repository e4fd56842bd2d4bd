"""Tests for the CTMC class."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.markov.ctmc import CTMC


def birth_death():
    """0 <-> 1 <-> 2 birth-death chain with birth 1, death 2."""
    generator = np.array(
        [
            [-1.0, 1.0, 0.0],
            [2.0, -3.0, 1.0],
            [0.0, 2.0, -2.0],
        ]
    )
    return CTMC(generator, states=["empty", "one", "two"])


class TestConstruction:
    def test_from_rates(self):
        chain = CTMC.from_rates(["u", "d"], {("u", "d"): 1.0, ("d", "u"): 4.0})
        assert np.allclose(chain.stationary_distribution(), [0.8, 0.2])

    def test_from_rates_rejects_self_loop(self):
        with pytest.raises(SolverError, match="self-loop"):
            CTMC.from_rates(["a"], {("a", "a"): 1.0})

    def test_from_rates_rejects_negative(self):
        with pytest.raises(SolverError):
            CTMC.from_rates(["a", "b"], {("a", "b"): -1.0})

    def test_label_count_mismatch(self):
        with pytest.raises(SolverError):
            CTMC(np.zeros((2, 2)), states=["only-one"])

    def test_index_of(self):
        chain = birth_death()
        assert chain.index_of("one") == 1

    def test_generator_held_as_csr(self):
        import scipy.sparse as sp

        dense = birth_death()
        assert isinstance(dense.generator, sp.csr_array)
        sparse = CTMC(sp.csr_array(dense.generator.toarray()))
        assert isinstance(sparse.generator, sp.csr_array)
        np.testing.assert_array_equal(
            sparse.generator.toarray(), dense.generator.toarray()
        )

    def test_from_rates_matches_dense(self):
        chain = CTMC.from_rates(
            ["empty", "one", "two"],
            {("empty", "one"): 1.0, ("one", "empty"): 2.0,
             ("one", "two"): 1.0, ("two", "one"): 2.0},
        )
        np.testing.assert_array_equal(
            chain.generator.toarray(), birth_death().generator.toarray()
        )

    def test_invalid_generator_rejected(self):
        with pytest.raises(SolverError, match="sum to zero"):
            CTMC(np.array([[-1.0, 2.0], [0.0, 0.0]]))


class TestStationary:
    def test_detailed_balance(self):
        chain = birth_death()
        pi = chain.stationary_distribution()
        # birth-death: pi_{i+1} = pi_i * birth/death
        assert np.isclose(pi[1] / pi[0], 0.5)
        assert np.isclose(pi[2] / pi[1], 0.5)
        assert np.isclose(pi.sum(), 1.0)

    def test_cached(self):
        chain = birth_death()
        assert chain.stationary_distribution() is chain.stationary_distribution()

    def test_expected_reward(self):
        chain = birth_death()
        pi = chain.stationary_distribution()
        rewards = [0.0, 1.0, 2.0]
        assert np.isclose(chain.expected_reward(rewards), pi[1] + 2 * pi[2])

    def test_expected_reward_shape_check(self):
        with pytest.raises(SolverError):
            birth_death().expected_reward([1.0])


class TestTransient:
    def test_time_zero_returns_initial(self):
        chain = birth_death()
        initial = np.array([1.0, 0.0, 0.0])
        assert np.allclose(chain.transient(initial, 0.0), initial)

    def test_converges_to_stationary(self):
        chain = birth_death()
        distribution = chain.transient([1.0, 0.0, 0.0], 200.0)
        assert np.allclose(distribution, chain.stationary_distribution(), atol=1e-8)

    def test_matches_expm(self):
        from scipy.linalg import expm

        chain = birth_death()
        t = 0.7
        expected = np.array([0.0, 1.0, 0.0]) @ expm(chain.generator.toarray() * t)
        assert np.allclose(chain.transient([0.0, 1.0, 0.0], t), expected, atol=1e-10)

    def test_transient_reward(self):
        chain = birth_death()
        value = chain.transient_reward([1.0, 0.0, 0.0], [0.0, 1.0, 2.0], 1.0)
        distribution = chain.transient([1.0, 0.0, 0.0], 1.0)
        assert np.isclose(value, distribution @ np.array([0.0, 1.0, 2.0]))


class TestAbsorption:
    def make_absorbing(self):
        generator = np.array(
            [
                [-1.0, 1.0, 0.0],
                [0.0, -2.0, 2.0],
                [0.0, 0.0, 0.0],
            ]
        )
        return CTMC(generator, states=["a", "b", "absorbed"])

    def test_absorbing_states_detected(self):
        assert self.make_absorbing().absorbing_states() == ["absorbed"]

    def test_mean_time_to_absorption(self):
        chain = self.make_absorbing()
        # E[T] from a = 1/1 + 1/2 = 1.5
        assert np.isclose(chain.mean_time_to_absorption([1.0, 0.0, 0.0]), 1.5)

    def test_mean_time_from_middle(self):
        chain = self.make_absorbing()
        assert np.isclose(chain.mean_time_to_absorption([0.0, 1.0, 0.0]), 0.5)

    def test_no_absorbing_state_raises(self):
        with pytest.raises(SolverError, match="no absorbing"):
            birth_death().mean_time_to_absorption([1.0, 0.0, 0.0])
