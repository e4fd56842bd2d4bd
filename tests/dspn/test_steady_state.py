"""Tests for the steady-state dispatch and result object."""

import numpy as np
import pytest

from repro.dspn import solve_steady_state
from repro.dspn.steady_state import METHODS, route_exponential
from repro.errors import ParameterError, UnsupportedModelError
from repro.statespace import tangible_reachability


class TestDispatch:
    def test_exponential_net_uses_ctmc(self, two_state_net):
        # a CTMC-class net is solved on its CSR generator, with a record
        result = solve_steady_state(two_state_net, use_cache=False)
        assert result.method == "sparse"
        assert result.solver_info is not None

    def test_deterministic_net_uses_mrgp(self, clocked_net):
        result = solve_steady_state(clocked_net)
        assert result.method == "mrgp"

    def test_sparse_method_solves_exponential_nets(self, two_state_net):
        result = solve_steady_state(two_state_net, method="sparse", use_cache=False)
        assert result.method == "sparse"
        assert result.solver_info is not None
        assert np.isclose(result.pi.sum(), 1.0)

    def test_sparse_method_rejects_deterministic_nets(self, clocked_net):
        with pytest.raises(UnsupportedModelError, match="sparse route"):
            solve_steady_state(clocked_net, method="sparse", use_cache=False)


class TestMethodValidation:
    def test_unknown_method_rejected_eagerly_with_sorted_list(self, two_state_net):
        with pytest.raises(
            ParameterError,
            match=r"unknown method 'simplex'; valid methods: auto, mrgp, sparse",
        ):
            solve_steady_state(two_state_net, method="simplex")

    def test_rejection_happens_before_any_state_space_work(self):
        # an un-buildable object would explode inside reachability; the
        # eager check must fire first
        with pytest.raises(ParameterError, match="unknown method"):
            solve_steady_state(object(), method="nope")

    def test_methods_tuple_is_sorted_in_the_error(self, two_state_net):
        assert sorted(METHODS) == ["auto", "mrgp", "sparse"]

    def test_ctmc_method_rejected_before_any_state_space_work(self):
        with pytest.raises(
            ParameterError,
            match=r"unknown method 'ctmc'; valid methods: auto, mrgp, sparse",
        ):
            solve_steady_state(object(), method="ctmc")


class TestAutoRouting:
    def test_every_exponential_graph_routes_sparse(self, two_state_net):
        graph = tangible_reachability(two_state_net)
        assert route_exponential(graph) == {
            "route": "sparse",
            "states": graph.n_states,
        }


class TestInvariant:
    def test_pi_sums_to_one(self, two_state_net, clocked_net):
        for net in (two_state_net, clocked_net):
            result = solve_steady_state(net)
            assert np.isclose(result.pi.sum(), 1.0)


class TestTwoStateValues:
    def test_availability(self, two_state_net):
        result = solve_steady_state(two_state_net)
        up = result.probability(lambda m: m["Up"] == 1)
        # fail 0.01, repair 0.5 -> availability = 0.5/(0.51)
        assert np.isclose(up, 0.5 / 0.51)


class TestClockedValues:
    def test_clocked_net_up_fraction(self, clocked_net):
        """Token decays at rate 0.1; deterministic reset after 2 s in Down.

        Cycle: time in Up ~ Exp(0.1) (mean 10), then exactly 2 in Down.
        Long-run up fraction = 10 / 12.
        """
        result = solve_steady_state(clocked_net)
        up = result.probability(lambda m: m["Up"] == 1)
        assert np.isclose(up, 10.0 / 12.0, rtol=1e-9)


class TestResultHelpers:
    def test_expected_reward(self, two_state_net):
        result = solve_steady_state(two_state_net)
        availability = result.expected_reward(lambda m: float(m["Up"]))
        assert np.isclose(availability, 0.5 / 0.51)

    def test_distribution_sorted(self, two_state_net):
        pairs = solve_steady_state(two_state_net).distribution()
        probabilities = [p for _, p in pairs]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_probability_of_everything_is_one(self, clocked_net):
        result = solve_steady_state(clocked_net)
        assert np.isclose(result.probability(lambda m: True), 1.0)
