"""Tests for reachability exploration and classification."""

import numpy as np
import pytest

from repro.errors import StateSpaceError
from repro.petri import NetBuilder
from repro.statespace.reachability import explore


class TestExplore:
    def test_two_state_net(self, two_state_net):
        graph = explore(two_state_net)
        assert graph.n_states == 2
        assert graph.vanishing.tolist() == [False, False]

    def test_edges_carry_rates(self, two_state_net):
        graph = explore(two_state_net)
        (edge,) = np.flatnonzero(graph.edge_source == 0)
        assert not graph.edge_deterministic[edge]
        assert graph.edge_value[edge] == 0.01

    def test_vanishing_classification(self, immediate_chain_net):
        graph = explore(immediate_chain_net)
        # A=1 and B=1 are vanishing, C=1 and D=1 tangible
        assert sum(graph.vanishing) == 2
        assert graph.n_states == 4

    def test_immediate_priority_filters_competitors(self):
        builder = NetBuilder("priority")
        builder.place("A", tokens=1).place("B").place("C").place("D")
        builder.immediate("high", priority=2, inputs={"A": 1}, outputs={"B": 1})
        builder.immediate("low", priority=1, inputs={"A": 1}, outputs={"C": 1})
        builder.exponential("park", rate=1.0, inputs={"B": 1}, outputs={"D": 1})
        builder.exponential("park2", rate=1.0, inputs={"C": 1}, outputs={"D": 1})
        net = builder.build()
        graph = explore(net)
        initial_edges = np.flatnonzero(graph.edge_source == 0)
        assert [graph.edge_transition[e] for e in initial_edges] == ["high"]

    def test_deterministic_edges(self, clocked_net):
        graph = explore(clocked_net)
        assert not graph.vanishing.any()
        assert set(graph.edge_deterministic.tolist()) == {False, True}

    def test_max_states_bound(self):
        builder = NetBuilder("unbounded")
        builder.place("A", tokens=1)
        builder.place("B")
        # B grows without bound
        builder.exponential("t", rate=1.0, inputs={"A": 1}, outputs={"A": 1, "B": 1})
        net = builder.build()
        with pytest.raises(StateSpaceError, match="exceeded"):
            explore(net, max_states=50)

    def test_absorbing_state_allowed(self):
        builder = NetBuilder("absorbing")
        builder.place("A", tokens=1).place("B")
        builder.exponential("t", rate=1.0, inputs={"A": 1}, outputs={"B": 1})
        net = builder.build()
        graph = explore(net)
        assert graph.n_states == 2
        assert 1 not in graph.edge_source

    def test_infinite_server_rate_in_edges(self):
        from repro.petri import ServerSemantics

        builder = NetBuilder("inf")
        builder.place("A", tokens=3).place("B")
        builder.exponential(
            "t",
            rate=1.0,
            server=ServerSemantics.INFINITE,
            inputs={"A": 1},
            outputs={"B": 1},
        )
        net = builder.build()
        graph = explore(net)
        initial_edge = np.flatnonzero(graph.edge_source == 0)[0]
        assert graph.edge_value[initial_edge] == 3.0
        assert graph.edge_degree[initial_edge] == 3

    def test_states_indexed_in_discovery_order(self, two_state_net):
        graph = explore(two_state_net)
        assert graph.markings[graph.initial] == two_state_net.initial_marking()
