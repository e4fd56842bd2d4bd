"""Tests for the DSPN discrete-event simulator."""

import numpy as np
import pytest

from repro.dspn import simulate, solve_steady_state
from repro.dspn.simulate import replication_averages, transient_profile
from repro.errors import SimulationError
from repro.perception.evaluation import build_net
from repro.perception.parameters import PerceptionParameters
from repro.perception.statemap import module_counts
from repro.petri import NetBuilder


class TestArguments:
    def test_rejects_bad_horizon(self, two_state_net):
        with pytest.raises(SimulationError):
            simulate(two_state_net, reward=lambda m: 1.0, horizon=0.0)

    def test_rejects_single_replication(self, two_state_net):
        with pytest.raises(SimulationError):
            simulate(two_state_net, reward=lambda m: 1.0, horizon=10, replications=1)

    def test_rejects_negative_warmup(self, two_state_net):
        with pytest.raises(SimulationError):
            simulate(two_state_net, reward=lambda m: 1.0, horizon=10, warmup=-1)


class TestAgainstAnalytic:
    def test_two_state_availability(self, two_state_net):
        analytic = solve_steady_state(two_state_net).expected_reward(
            lambda m: float(m["Up"])
        )
        estimate = simulate(
            two_state_net,
            reward=lambda m: float(m["Up"]),
            horizon=20000.0,
            warmup=500.0,
            replications=6,
            seed=1,
        )
        assert estimate.covers(analytic) or abs(estimate.mean - analytic) < 0.01

    def test_clocked_net_deterministic_reset(self, clocked_net):
        analytic = solve_steady_state(clocked_net).expected_reward(
            lambda m: float(m["Up"])
        )
        estimate = simulate(
            clocked_net,
            reward=lambda m: float(m["Up"]),
            horizon=20000.0,
            warmup=200.0,
            replications=6,
            seed=2,
        )
        assert abs(estimate.mean - analytic) < 0.02

    def test_immediate_resolution(self, immediate_chain_net):
        estimate = simulate(
            immediate_chain_net,
            reward=lambda m: float(m["C"]),
            horizon=5000.0,
            replications=4,
            seed=3,
        )
        # CTMC between C and D: pi(C) = 2/3
        assert abs(estimate.mean - 2 / 3) < 0.03


class TestEstimate:
    def test_interval_symmetric(self, two_state_net):
        estimate = simulate(
            two_state_net,
            reward=lambda m: float(m["Up"]),
            horizon=1000.0,
            replications=5,
            seed=4,
        )
        low, high = estimate.interval
        assert np.isclose((low + high) / 2, estimate.mean)
        assert estimate.covers(estimate.mean)

    def test_reproducible_with_seed(self, two_state_net):
        kwargs = dict(
            reward=lambda m: float(m["Up"]), horizon=500.0, replications=3, seed=99
        )
        first = simulate(two_state_net, **kwargs)
        second = simulate(two_state_net, **kwargs)
        assert first.mean == second.mean


class TestAbsorbingBehaviour:
    def test_dead_marking_accumulates_to_horizon(self):
        builder = NetBuilder("absorbing")
        builder.place("A", tokens=1).place("B")
        builder.exponential("t", rate=100.0, inputs={"A": 1}, outputs={"B": 1})
        net = builder.build()
        estimate = simulate(
            net, reward=lambda m: float(m["B"]), horizon=100.0,
            replications=3, seed=5,
        )
        # absorbed almost immediately; reward ~ 1 for the full horizon
        assert estimate.mean > 0.97


class TestSeededOutputsPinned:
    """Exact seeded outputs of every consumer of the event loop.

    ``replication_averages``, ``simulate`` and ``transient_profile``
    read one sojourn generator; a change to it that moves, adds or
    drops a random draw changes these values.
    """

    @staticmethod
    def _dead_net():
        builder = NetBuilder("dead")
        builder.place("Up", tokens=1).place("Down")
        builder.exponential("fail", rate=0.3, inputs={"Up": 1}, outputs={"Down": 1})
        return builder.build()

    def test_simulate_two_state(self, two_state_net):
        estimate = simulate(
            two_state_net, reward=lambda m: float(m["Up"]), horizon=3000.0,
            warmup=100.0, replications=4, seed=11,
        )
        assert estimate.mean == 0.9833827744904584
        assert estimate.std == 0.0030476907344283576

    def test_replication_averages(self, clocked_net, immediate_chain_net):
        up = lambda m: float(m["Up"])  # noqa: E731
        assert replication_averages(
            clocked_net, reward=up, horizon=500.0, warmup=3.0,
            replications=3, seed=7,
        ) == [0.832, 0.872, 0.844]
        assert replication_averages(
            immediate_chain_net, reward=lambda m: float(m["C"]),
            horizon=300.0, replications=2, seed=3,
        ) == [0.6691436416441695, 0.6579171864708381]
        assert replication_averages(
            self._dead_net(), reward=up, horizon=50.0, warmup=1.0,
            replications=3, seed=5,
        ) == [0.1124446650674963, 0.06675692677322853, 0.0]

    def test_replication_averages_perception_net(self):
        net = build_net(PerceptionParameters.six_version_defaults())
        healthy = lambda m: float(module_counts(m).healthy)  # noqa: E731
        assert replication_averages(
            net, reward=healthy, horizon=20000.0, replications=2, seed=1
        ) == [4.554321943674798, 5.098285827495322]
        profile = transient_profile(
            net, reward=healthy, times=[0.0, 500.0, 5000.0, 20000.0],
            replications=2, seed=4,
        )
        assert profile.means == (6.0, 6.0, 5.5, 5.0)

    def test_transient_profile(self, clocked_net):
        profile = transient_profile(
            clocked_net, reward=lambda m: float(m["Up"]),
            times=[0.5, 3.0, 11.0, 17.5, 40.0, 63.0], replications=12, seed=9,
        )
        assert profile.means == (
            0.9166666666666666, 0.8333333333333334, 0.9166666666666666,
            0.75, 0.9166666666666666, 1.0,
        )
        dead = transient_profile(
            self._dead_net(), reward=lambda m: float(m["Up"]),
            times=[0.0, 3.0, 100.0], replications=3, seed=2,
        )
        assert dead.means == (1.0, 0.3333333333333333, 0.0)

    def test_events_count_the_firings_of_both(self, two_state_net):
        # each replication here fires until its horizon; the transient
        # profile's firings are counted on the same counter
        from repro.obs import registry_override

        with registry_override() as registry:
            replication_averages(
                two_state_net, reward=lambda m: 1.0, horizon=200.0,
                replications=2, seed=1,
            )
            averaged = registry.counter("dspn.simulate.events").value
            transient_profile(
                two_state_net, reward=lambda m: 1.0, times=[200.0],
                replications=2, seed=1,
            )
            total = registry.counter("dspn.simulate.events").value
        assert averaged > 0
        # the same seed and horizon fire the same transitions
        assert total == 2 * averaged
