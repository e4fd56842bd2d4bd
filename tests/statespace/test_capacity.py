"""Capacity bounds interacting with reachability."""

from repro.petri import NetBuilder
from repro.statespace import tangible_reachability


class TestCapacityBoundedReachability:
    def test_capacity_truncates_state_space(self):
        """A producer/consumer whose buffer capacity caps the states."""
        builder = NetBuilder("buffer")
        builder.place("Source", tokens=1)
        builder.place("Buffer", capacity=3)
        builder.exponential(
            "produce", rate=1.0, inputs={"Source": 1}, outputs={"Source": 1, "Buffer": 1}
        )
        builder.exponential("consume", rate=2.0, inputs={"Buffer": 1})
        net = builder.build()
        graph = tangible_reachability(net)
        # states: Buffer in {0,1,2,3} with Source=1
        assert graph.n_states == 4
        assert max(m["Buffer"] for m in graph.markings) == 3

    def test_full_buffer_disables_producer(self):
        builder = NetBuilder("buffer")
        builder.place("Source", tokens=1)
        builder.place("Buffer", tokens=2, capacity=2)
        builder.exponential(
            "produce", rate=1.0, inputs={"Source": 1}, outputs={"Source": 1, "Buffer": 1}
        )
        builder.exponential("consume", rate=2.0, inputs={"Buffer": 1})
        net = builder.build()
        marking = net.initial_marking()
        assert not net.is_enabled(net.transitions["produce"], marking)
        assert net.is_enabled(net.transitions["consume"], marking)

    def test_capacity_survives_steady_state_solve(self):
        from repro.dspn import solve_steady_state

        builder = NetBuilder("mm1k")
        builder.place("Source", tokens=1)
        builder.place("Queue", capacity=5)
        builder.exponential(
            "arrive", rate=1.0, inputs={"Source": 1}, outputs={"Source": 1, "Queue": 1}
        )
        builder.exponential("serve", rate=1.5, inputs={"Queue": 1})
        net = builder.build()
        result = solve_steady_state(net)
        # M/M/1/5 queue: p_n = (1-rho) rho^n / (1 - rho^7)... with K=5:
        rho = 1.0 / 1.5
        norm = sum(rho**n for n in range(6))
        import numpy as np

        for n in range(6):
            measured = result.probability(lambda m, n=n: m["Queue"] == n)
            assert np.isclose(measured, rho**n / norm, rtol=1e-9)


class TestCapacityCountsWhatTheFiringTakes:
    """A firing that consumes and produces on a full place leaves it full."""

    def _peek_net(self):
        builder = NetBuilder("peek")
        builder.place("B", tokens=1, capacity=1)
        builder.place("C", capacity=1)
        builder.exponential(
            "peek", rate=1.0, inputs={"B": 1}, outputs={"B": 1, "C": 1}
        )
        builder.exponential("drain", rate=1.0, inputs={"C": 1})
        return builder.build()

    def test_test_arc_on_a_full_place_is_enabled(self):
        net = self._peek_net()
        marking = net.initial_marking()
        assert net.enabling_degree(net.transitions["peek"], marking) == 1
        after = net.fire(net.transitions["peek"], marking)
        assert (after["B"], after["C"]) == (1, 1)

    def test_net_growth_past_capacity_still_disables(self):
        builder = NetBuilder("grow")
        builder.place("B", tokens=1, capacity=1)
        builder.exponential("grow", rate=1.0, inputs={"B": 1}, outputs={"B": 2})
        net = builder.build()
        assert not net.is_enabled(net.transitions["grow"], net.initial_marking())

    def test_marking_dependent_test_arc_on_a_full_place_is_enabled(self):
        builder = NetBuilder("peek-dynamic")
        builder.place("B", tokens=2, capacity=2)
        builder.place("C")
        builder.exponential(
            "peek",
            rate=1.0,
            inputs={"B": lambda m: m["B"]},
            outputs={"B": lambda m: m["B"], "C": 1},
        )
        builder.exponential("drain", rate=1.0, inputs={"C": 1})
        net = builder.build()
        assert net.is_enabled(net.transitions["peek"], net.initial_marking())

    def test_reachability_reaches_the_peeked_marking(self):
        graph = tangible_reachability(self._peek_net())
        assert sorted(m["C"] for m in graph.markings) == [0, 1]
