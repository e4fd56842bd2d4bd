"""Tests for MRGP kernel construction from tangible graphs."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from repro.dspn.mrgp_builder import build_mrgp_kernels
from repro.errors import UnsupportedModelError
from repro.markov.mrgp import solve_mrgp
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_rejuvenation_net
from repro.petri import NetBuilder
from repro.statespace import tangible_reachability


def augmented_reference(graph):
    """``(K, U)`` from one scipy ``expm`` per deterministic group.

    The textbook construction, kept here as the reference: append the
    group's exit markings as absorbing states, exponentiate the Van Loan
    block matrix ``[[G, I], [0, 0]] τ`` of that augmented generator
    ``G``, read the exit probabilities off ``e^{Gτ}``, and route the
    in-group mass at τ through the deterministic firing.
    """
    n = graph.n_states
    kernel, sojourn = np.zeros((n, n)), np.zeros((n, n))
    groups = {}
    for state in range(n):
        edges = graph.deterministic_edges[state]
        if edges:
            groups.setdefault(edges[0].transition, []).append(state)
            continue
        total = sum(edge.rate for edge in graph.exponential_edges[state])
        sojourn[state, state] = 1.0 / total
        for edge in graph.exponential_edges[state]:
            for target, probability in edge.targets:
                kernel[state, target] += edge.rate / total * probability
    for members in groups.values():
        delay = graph.deterministic_edges[members[0]][0].delay
        exits = sorted(
            {
                target
                for state in members
                for edge in graph.exponential_edges[state]
                for target, _ in edge.targets
                if target not in members
            }
        )
        order = members + exits
        size = len(order)
        generator = np.zeros((size, size))
        for row, state in enumerate(members):
            for edge in graph.exponential_edges[state]:
                for target, probability in edge.targets:
                    generator[row, order.index(target)] += edge.rate * probability
                    generator[row, row] -= edge.rate * probability
        van_loan = np.zeros((2 * size, 2 * size))
        van_loan[:size, :size] = generator
        van_loan[:size, size:] = np.eye(size)
        full = expm(van_loan * delay)
        at_delay, integral = full[:size, :size], full[:size, size:]
        m = len(members)
        for row, state in enumerate(members):
            sojourn[state, members] += integral[row, :m]
            kernel[state, exits] += at_delay[row, m:]
            for column, other in enumerate(members):
                for target, probability in graph.deterministic_edges[other][0].targets:
                    kernel[state, target] += at_delay[row, column] * probability
    return kernel, sojourn


class TestClockOnlyNet:
    """A pure deterministic cycle: token moves A -> B every tau seconds."""

    def build(self, tau_ab=2.0, tau_ba=3.0):
        builder = NetBuilder("det-cycle")
        builder.place("A", tokens=1).place("B")
        builder.deterministic("ab", delay=tau_ab, inputs={"A": 1}, outputs={"B": 1})
        builder.deterministic("ba", delay=tau_ba, inputs={"B": 1}, outputs={"A": 1})
        return builder.build()

    def test_kernel_alternates(self):
        graph = tangible_reachability(self.build())
        kernel, sojourn = build_mrgp_kernels(graph)
        assert np.allclose(kernel, [[0, 1], [1, 0]])

    def test_sojourn_is_delay(self):
        graph = tangible_reachability(self.build())
        _, sojourn = build_mrgp_kernels(graph)
        a = next(i for i, m in enumerate(graph.markings) if m["A"] == 1)
        assert np.isclose(sojourn[a, a], 2.0)
        assert np.isclose(sojourn[1 - a, 1 - a], 3.0)

    def test_solution_time_fractions(self):
        graph = tangible_reachability(self.build())
        kernel, sojourn = build_mrgp_kernels(graph)
        result = solve_mrgp(kernel, sojourn)
        a = next(i for i, m in enumerate(graph.markings) if m["A"] == 1)
        assert np.isclose(result.pi[a], 0.4)


class TestPreemptedDeterministic:
    """Deterministic transition racing an exponential one.

    Token in place Race: deterministic d (delay tau) moves it to D,
    exponential e (rate lam) moves it to E; from D and E exponential
    transitions return it.  P(d wins) = exp(-lam*tau).
    """

    def build(self, tau=1.0, lam=0.7):
        builder = NetBuilder("race")
        builder.place("Race", tokens=1).place("D").place("E")
        builder.deterministic("d", delay=tau, inputs={"Race": 1}, outputs={"D": 1})
        builder.exponential("e", rate=lam, inputs={"Race": 1}, outputs={"E": 1})
        builder.exponential("dBack", rate=1.0, inputs={"D": 1}, outputs={"Race": 1})
        builder.exponential("eBack", rate=1.0, inputs={"E": 1}, outputs={"Race": 1})
        return builder.build()

    def test_kernel_race_probabilities(self):
        tau, lam = 1.0, 0.7
        graph = tangible_reachability(self.build(tau, lam))
        kernel, _ = build_mrgp_kernels(graph)
        race = next(i for i, m in enumerate(graph.markings) if m["Race"] == 1)
        d = next(i for i, m in enumerate(graph.markings) if m["D"] == 1)
        e = next(i for i, m in enumerate(graph.markings) if m["E"] == 1)
        assert math.isclose(kernel[race, e], 1 - math.exp(-lam * tau), rel_tol=1e-9)
        assert math.isclose(kernel[race, d], math.exp(-lam * tau), rel_tol=1e-9)

    def test_sojourn_truncated_mean(self):
        tau, lam = 1.0, 0.7
        graph = tangible_reachability(self.build(tau, lam))
        _, sojourn = build_mrgp_kernels(graph)
        race = next(i for i, m in enumerate(graph.markings) if m["Race"] == 1)
        # E[min(tau, Exp(lam))] = (1 - exp(-lam tau)) / lam
        expected = (1 - math.exp(-lam * tau)) / lam
        assert math.isclose(sojourn[race, race], expected, rel_tol=1e-9)

    def test_full_solution_matches_simulation_free_formula(self):
        """Renewal-reward hand calculation for the race model."""
        tau, lam = 1.0, 0.7
        graph = tangible_reachability(self.build(tau, lam))
        kernel, sojourn = build_mrgp_kernels(graph)
        result = solve_mrgp(kernel, sojourn)
        assert np.isclose(result.pi.sum(), 1.0)
        race = next(i for i, m in enumerate(graph.markings) if m["Race"] == 1)
        # fraction of time in Race: E[min] / (E[min] + 1)  (returns take 1.0 mean)
        e_min = (1 - math.exp(-lam * tau)) / lam
        assert math.isclose(result.pi[race], e_min / (e_min + 1.0), rel_tol=1e-9)


    def test_kernels_equal_augmented_matrix_reference(self):
        graph = tangible_reachability(self.build(tau=2.5, lam=0.7))
        kernel, sojourn = build_mrgp_kernels(graph)
        reference_kernel, reference_sojourn = augmented_reference(graph)
        np.testing.assert_allclose(kernel, reference_kernel, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(sojourn, reference_sojourn, rtol=1e-12, atol=0.0)


class TestRaceThroughSubordinatedChain:
    """A deterministic clock racing a two-marking subordinated chain.

    While ``Armed`` holds its token, ``tick`` (delay τ) is enabled in both
    Up and Degraded, and degrade/recover move between them without
    disabling it.  ``fail`` and ``crash`` consume the token: they leave
    the enabling set through two different exit markings.
    """

    def build(self, tau=3.0):
        builder = NetBuilder("subordinated-race")
        builder.place("Up", tokens=1).place("Degraded").place("Down").place("Dead")
        builder.place("Armed", tokens=1).place("Spent")
        builder.exponential("degrade", rate=0.4, inputs={"Up": 1}, outputs={"Degraded": 1})
        builder.exponential("recover", rate=0.9, inputs={"Degraded": 1}, outputs={"Up": 1})
        builder.exponential(
            "fail", rate=0.05, inputs={"Up": 1, "Armed": 1}, outputs={"Down": 1}
        )
        builder.exponential(
            "crash", rate=0.3, inputs={"Degraded": 1, "Armed": 1}, outputs={"Dead": 1}
        )
        builder.deterministic("tick", delay=tau, inputs={"Armed": 1}, outputs={"Spent": 1})
        builder.exponential("rearm", rate=1.0, inputs={"Spent": 1}, outputs={"Armed": 1})
        builder.exponential(
            "repair", rate=0.2, inputs={"Down": 1}, outputs={"Up": 1, "Armed": 1}
        )
        builder.exponential(
            "replace", rate=0.1, inputs={"Dead": 1}, outputs={"Up": 1, "Armed": 1}
        )
        return builder.build()

    def test_one_group_with_two_members_and_two_exits(self):
        graph = tangible_reachability(self.build())
        armed = [s for s, m in enumerate(graph.markings) if m["Armed"] == 1]
        assert len(armed) == 2
        assert all(graph.deterministic_edges[s] for s in armed)
        kernel, _ = build_mrgp_kernels(graph)
        down = next(i for i, m in enumerate(graph.markings) if m["Down"] == 1)
        dead = next(i for i, m in enumerate(graph.markings) if m["Dead"] == 1)
        assert all(kernel[s, down] > 0.0 and kernel[s, dead] > 0.0 for s in armed)

    @pytest.mark.parametrize("tau", [0.01, 3.0, 400.0])
    def test_kernels_equal_augmented_matrix_reference(self, tau):
        graph = tangible_reachability(self.build(tau))
        kernel, sojourn = build_mrgp_kernels(graph)
        reference_kernel, reference_sojourn = augmented_reference(graph)
        np.testing.assert_allclose(kernel, reference_kernel, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            sojourn, reference_sojourn, rtol=0.0, atol=1e-12 * tau
        )
        np.testing.assert_allclose(kernel.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def _perception_graph(n_modules, r, interval):
    parameters = PerceptionParameters(
        n_modules=n_modules, f=1, r=r, rejuvenation=True, rejuvenation_interval=interval
    )
    return tangible_reachability(build_rejuvenation_net(parameters))


#: Rejuvenating shapes N 6-14, r 1-2 (N=6 is below the BFT minimum for r=2).
PERCEPTION_SHAPES = [
    (n_modules, r) for n_modules in (6, 8, 10, 12, 14) for r in (1, 2)
    if (n_modules, r) != (6, 2)
]


class TestPerceptionKernelInvariants:
    """Renewal invariants of the Fig. 2b/c kernels over the paper's range."""

    @pytest.mark.parametrize("interval", [200.0, 600.0, 3000.0])
    @pytest.mark.parametrize("n_modules, r", PERCEPTION_SHAPES)
    def test_rows_are_distributions_and_sojourns_fill_the_interval(
        self, n_modules, r, interval
    ):
        graph = _perception_graph(n_modules, r, interval)
        # the rejuvenation clock is enabled everywhere: one exit-free group
        assert all(graph.deterministic_edges[s] for s in range(graph.n_states))
        kernel, sojourn = build_mrgp_kernels(graph)
        assert kernel.min() >= 0.0
        np.testing.assert_allclose(kernel.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(sojourn.sum(axis=1), interval, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_modules, r", [(6, 1), (8, 2)])
    def test_kernels_equal_augmented_matrix_reference(self, n_modules, r):
        graph = _perception_graph(n_modules, r, 600.0)
        kernel, sojourn = build_mrgp_kernels(graph)
        reference_kernel, reference_sojourn = augmented_reference(graph)
        np.testing.assert_allclose(kernel, reference_kernel, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            sojourn, reference_sojourn, rtol=0.0, atol=1e-12 * 600.0
        )


class TestUnsupportedShapes:
    def test_two_concurrent_deterministic_rejected(self):
        builder = NetBuilder("two-det")
        builder.place("A", tokens=1).place("B", tokens=1).place("C")
        builder.deterministic("d1", delay=1.0, inputs={"A": 1}, outputs={"C": 1})
        builder.deterministic("d2", delay=2.0, inputs={"B": 1}, outputs={"C": 1})
        builder.exponential("back", rate=1.0, inputs={"C": 2}, outputs={"A": 1, "B": 1})
        net = builder.build()
        graph = tangible_reachability(net)
        with pytest.raises(UnsupportedModelError, match="deterministic"):
            build_mrgp_kernels(graph)

    def test_absorbing_state_self_cycles(self):
        builder = NetBuilder("absorbing")
        builder.place("A", tokens=1).place("B").place("Sink")
        builder.deterministic("d", delay=1.0, inputs={"A": 1}, outputs={"B": 1})
        builder.exponential("e", rate=1.0, inputs={"B": 1}, outputs={"Sink": 1})
        net = builder.build()
        graph = tangible_reachability(net)
        kernel, sojourn = build_mrgp_kernels(graph)
        sink = next(i for i, m in enumerate(graph.markings) if m["Sink"] == 1)
        assert kernel[sink, sink] == 1.0
        result = solve_mrgp(kernel, sojourn)
        assert np.isclose(result.pi[sink], 1.0)
