"""The structure tier: rate-free tangible graphs re-stamped with new rates.

Contracts:

* **key** — the structure digest ignores exponential rates (constant or
  callable) and deterministic delays, and changes with everything that
  shapes the reachability graph; ``max_states`` is part of the key;
* **bit-identity** — a solve whose graph comes from the tier equals a
  cold solve (cache disabled) exactly, in π and in E[R];
* **bypass and hygiene** — verified solves never touch the tier, an
  overflow is never stored, and the size budget evicts.
"""

from __future__ import annotations

import copyreg
import random

import numpy as np
import pytest
import scipy.sparse as sp

import repro.dspn.steady_state as steady_state
from repro.dspn.mrgp_builder import build_mrgp_kernels
from repro.dspn.sparse_builder import sparse_generator
from repro.dspn.steady_state import solve_steady_state
from repro.dspn.transient import transient_rewards
from repro.engine import (
    SolverCache,
    StructureTier,
    active_cache,
    cache_override,
    configure_cache,
    net_digests,
)
from repro.errors import StateSpaceError
from repro.experiments.registry import EXPERIMENT_IDS, run_experiment
from repro.markov.uniformization import expm_and_integral
from repro.obs.metrics import registry_override
from repro.obs.tracer import tracing
from repro.perception.evaluation import Evaluation, build_net
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.parameters import PerceptionParameters
from repro.petri import NetBuilder, ServerSemantics
from repro.statespace import TangibleGraph, tangible_reachability

#: Table II means, jittered per spec as the cold serving benchmark does.
TABLE2 = {
    "mttc": 1523.0,
    "mttf": 3000.0,
    "mttr": 3.0,
    "rejuvenation_time_per_module": 3.0,
}

#: The cold serving workload's shapes: (versions, f, r, rejuvenation).
COLD_SHAPES = (
    *((n, 1, 1, False) for n in range(4, 11)),
    *((n, 2, 1, False) for n in range(7, 11)),
    *((n, 1, 1, True) for n in range(6, 13)),
    *((n, 1, 2, True) for n in range(8, 13)),
)

#: Registry experiments that solve no net (a batch simulation only).
SOLVER_FREE = {"monitor-policies"}


def _jittered(shape, rng: random.Random) -> PerceptionParameters:
    versions, f, r, rejuvenation = shape
    rates = {
        name: mean * rng.uniform(0.8, 1.25)
        for name, mean in TABLE2.items()
        if rejuvenation or name != "rejuvenation_time_per_module"
    }
    return PerceptionParameters(
        n_modules=versions, f=f, r=r, rejuvenation=rejuvenation, **rates
    )


def _net(
    *,
    tokens=2,
    rate=1.0,
    back=0.5,
    kind="exponential",
    weight=1.0,
    priority=1,
    guard=None,
    arc=1,
    server=ServerSemantics.SINGLE,
):
    """A small net with a vanishing choice and every kind of element."""
    builder = NetBuilder("structure")
    builder.place("A", tokens=tokens).place("B").place("C")
    builder.exponential(
        "go",
        rate=rate,
        server=server,
        guard=guard,
        inputs={"A": arc},
        outputs={"B": 1},
    )
    builder.immediate(
        "left", weight=weight, priority=priority, inputs={"B": 1}, outputs={"C": 1}
    )
    builder.immediate("right", weight=1.0, inputs={"B": 1}, outputs={"A": arc})
    if kind == "exponential":
        builder.exponential("back", rate=back, inputs={"C": 1}, outputs={"A": 1})
    else:
        builder.deterministic("back", delay=back, inputs={"C": 1}, outputs={"A": 1})
    return builder.build()


def _key(net, max_states=100):
    return (net_digests(net).structure, max_states)


def _assert_same_graph(graph, cold):
    assert graph.markings == cold.markings
    assert graph.initial_distribution == cold.initial_distribution
    np.testing.assert_array_equal(graph.values, cold.values)
    for field in (
        "edge_source",
        "edge_degree",
        "edge_deterministic",
        "target",
        "probability",
    ):
        np.testing.assert_array_equal(
            getattr(graph.structure, field), getattr(cold.structure, field)
        )
    assert graph.structure.edge_transition == cold.structure.edge_transition


class TestKey:
    REFERENCE = _key(_net())

    @pytest.mark.parametrize(
        "options",
        [
            {"rate": 7.0},
            {"back": 0.25},
            {"rate": lambda marking: 1.0 + marking["A"]},
            {"rate": lambda marking: 2.0 / (1 + marking["B"])},
        ],
        ids=["rate", "second-rate", "callable-rate", "other-callable-rate"],
    )
    def test_rates_do_not_change_the_key(self, options):
        assert _key(_net(**options)) == self.REFERENCE

    def test_delays_do_not_change_the_key(self):
        assert _key(_net(kind="deterministic", back=3.0)) == _key(
            _net(kind="deterministic", back=300.0)
        )

    @pytest.mark.parametrize(
        "options",
        [
            {"tokens": 3},
            {"guard": lambda marking: marking["A"] > 1},
            {"weight": 2.0},
            {"arc": 2},
            {"priority": 2},
            {"kind": "deterministic"},
            {"server": ServerSemantics.INFINITE},
        ],
        ids=["tokens", "guard", "weight", "arc", "priority", "kind", "server"],
    )
    def test_structure_changes_the_key(self, options):
        assert _key(_net(**options)) != self.REFERENCE

    def test_max_states_changes_the_key(self):
        assert _key(_net(), max_states=200) != self.REFERENCE

    def test_fingerprint_still_sees_rates(self):
        assert net_digests(_net(rate=7.0)).fingerprint != (
            net_digests(_net()).fingerprint
        )

    def test_solve_cold_shapes_have_19_structures(self):
        # f enters Eq. 1 only through the reward, so the f=1 and f=2
        # no-rejuvenation nets of one size share a structure
        digests = {
            net_digests(build_net(_jittered(shape, random.Random(0)))).structure
            for shape in COLD_SHAPES
        }
        assert len(COLD_SHAPES) == 23
        assert len(digests) == 19


class TestBitIdentity:
    @pytest.mark.parametrize(
        "shape", COLD_SHAPES, ids=lambda shape: "n{}-f{}-r{}-{}".format(*shape)
    )
    def test_hit_equals_cold_solve(self, shape):
        rng = random.Random(str(shape))
        first, second = _jittered(shape, rng), _jittered(shape, rng)
        with cache_override(enabled=True, directory=None) as cache:
            Evaluation(first).expected_reliability()
            hits = cache.structures.hits
            hit = Evaluation(second)
            hit_value = hit.expected_reliability()
            assert cache.structures.hits == hits + 1
        with cache_override(enabled=False):
            cold = Evaluation(second)
            cold_value = cold.expected_reliability()
        assert hit_value == cold_value
        np.testing.assert_array_equal(hit.result.solution.pi, cold.result.solution.pi)
        assert hit.result.solution.markings == cold.result.solution.markings

    @pytest.mark.parametrize(
        "experiment_id", sorted(set(EXPERIMENT_IDS) - SOLVER_FREE)
    )
    def test_registry_hits_equal_cold_solves(self, experiment_id, monkeypatch):
        original = steady_state.tangible_graph
        hits = []

        def checked(net, **options):
            graph, tier = original(net, **options)
            if tier == "hit":
                cold = tangible_reachability(net, max_states=options["max_states"])
                _assert_same_graph(graph, cold)
                np.testing.assert_array_equal(
                    steady_state._solve_graph(net, graph, "auto").pi,
                    steady_state._solve_graph(net, cold, "auto").pi,
                )
                hits.append(net.name)
            return graph, tier

        monkeypatch.setattr(steady_state, "tangible_graph", checked)
        with cache_override(enabled=True, directory=None):
            run_experiment(experiment_id)
        if experiment_id in {"fig3", "fig4a", "phase-diagram", "ablation-downtime"}:
            assert hits  # these sweep rates over one structure

    def test_transient_hit_equals_cold(self):
        times = [0.0, 100.0, 2000.0]
        reward = lambda marking: float(marking["Pmh"])  # noqa: E731
        base = PerceptionParameters.four_version_defaults()
        with cache_override(enabled=True, directory=None) as cache:
            transient_rewards(build_no_rejuvenation_net(base), reward, times)
            hit = transient_rewards(
                build_no_rejuvenation_net(base.replace(mttc=900.0)), reward, times
            )
            assert cache.structures.hits == 1
        with cache_override(enabled=False):
            cold = transient_rewards(
                build_no_rejuvenation_net(base.replace(mttc=900.0)), reward, times
            )
        assert hit.rewards == cold.rewards
        np.testing.assert_array_equal(hit.distributions, cold.distributions)

    def test_time_domain_metrics_hit_equals_cold(self):
        from repro.analysis.sensitivity import elasticities
        from repro.perception.metrics import (
            mean_time_to_quorum_loss,
            quorum_loss_probability,
        )

        def metrics(parameters):
            return (
                mean_time_to_quorum_loss(parameters),
                quorum_loss_probability(parameters, 7200.0),
                elasticities(parameters, ("mttc", "mttf", "mttr")),
            )

        base = PerceptionParameters.four_version_defaults()
        with cache_override(enabled=True, directory=None) as cache:
            metrics(base)
            misses = cache.structures.misses
            hit = metrics(base.replace(mttc=900.0))
            assert cache.structures.misses == misses
            assert cache.structures.hits >= 3
        with cache_override(enabled=False):
            cold = metrics(base.replace(mttc=900.0))
        assert hit == cold


def _solve_measures(net, **options):
    with tracing() as tracer:
        solve_steady_state(net, **options)
    (record,) = [r for r in tracer.records if r.name == "dspn.solve"]
    return record.measures


def _loop_generator(graph):
    """The per-edge COO loop the array scatter of sparse_generator replaced."""
    n = graph.n_states
    rows, cols, rates = [], [], []
    diagonal = np.zeros(n)
    for source in range(n):
        for edge in graph.exponential_edges[source]:
            for target, probability in edge.targets:
                if target != source:
                    flow = edge.rate * probability
                    rows.append(source)
                    cols.append(target)
                    rates.append(flow)
                    diagonal[source] -= flow
    nonzero = np.flatnonzero(diagonal)
    matrix = sp.coo_array(
        (
            np.asarray(rates + diagonal[nonzero].tolist()),
            (np.asarray(rows + nonzero.tolist()), np.asarray(cols + nonzero.tolist())),
        ),
        shape=(n, n),
    )
    return sp.csr_array(matrix)


def _loop_kernels(graph):
    """The per-edge loops the array scatters of build_mrgp_kernels replaced."""
    n = graph.n_states
    kernel, sojourn = np.zeros((n, n)), np.zeros((n, n))
    groups = {}
    for state in range(n):
        if graph.deterministic_edges[state]:
            transition = graph.deterministic_edges[state][0].transition
            groups.setdefault(transition, []).append(state)
            continue
        total = sum(edge.rate for edge in graph.exponential_edges[state])
        if total <= 0.0:
            kernel[state, state] = sojourn[state, state] = 1.0
            continue
        sojourn[state, state] = 1.0 / total
        for edge in graph.exponential_edges[state]:
            for target, probability in edge.targets:
                kernel[state, target] += (edge.rate / total) * probability
    for members in groups.values():
        rates = np.zeros((len(members), n))
        routing = np.zeros((len(members), n))
        for row, state in enumerate(members):
            for edge in graph.exponential_edges[state]:
                for target, probability in edge.targets:
                    rates[row, target] += edge.rate * probability
            for target, probability in graph.deterministic_edges[state][0].targets:
                routing[row, target] += probability
        rows = np.asarray(members)
        outside = np.ones(n, dtype=bool)
        outside[rows] = False
        subgenerator = rates[:, rows]
        subgenerator[np.diag_indices(len(members))] -= rates.sum(axis=1)
        delay = graph.deterministic_edges[members[0]][0].delay
        at_delay, integral = expm_and_integral(subgenerator, delay)
        sojourn[np.ix_(rows, rows)] += integral
        exits = np.flatnonzero(outside & rates.any(axis=0))
        if exits.size:
            leaving = integral @ rates[:, exits]
            kernel[np.ix_(rows, exits)] += np.where(leaving > 1e-14, leaving, 0.0)
        fired = np.where(at_delay > 1e-14, at_delay, 0.0)
        targets = np.flatnonzero(routing.any(axis=0))
        kernel[np.ix_(rows, targets)] += fired @ routing[:, targets]
    return kernel, sojourn


class TestAssembly:
    """The array scatters equal the per-edge loops they replaced, bit for bit."""

    @pytest.mark.parametrize(
        "shape", COLD_SHAPES[::3], ids=lambda shape: "n{}-f{}-r{}-{}".format(*shape)
    )
    def test_matrices_equal_the_loops(self, shape):
        net = build_net(_jittered(shape, random.Random(str(shape))))
        graph = tangible_reachability(net)
        kernel, sojourn = build_mrgp_kernels(graph)
        reference_kernel, reference_sojourn = _loop_kernels(graph)
        np.testing.assert_array_equal(kernel, reference_kernel)
        np.testing.assert_array_equal(sojourn, reference_sojourn)
        if not graph.has_deterministic():
            generator, reference = sparse_generator(graph), _loop_generator(graph)
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(
                    getattr(generator, part), getattr(reference, part)
                )

    def test_absorbing_marking_is_a_unit_self_cycle(self):
        builder = NetBuilder("absorbing")
        builder.place("A", tokens=1).place("B").place("C")
        builder.deterministic("d", delay=2.0, inputs={"A": 1}, outputs={"B": 1})
        builder.exponential("e", rate=1.0, inputs={"B": 1}, outputs={"C": 1})
        graph = tangible_reachability(builder.build())
        kernel, sojourn = build_mrgp_kernels(graph)
        reference_kernel, reference_sojourn = _loop_kernels(graph)
        np.testing.assert_array_equal(kernel, reference_kernel)
        np.testing.assert_array_equal(sojourn, reference_sojourn)


class TestTier:
    def test_span_and_counters_record_the_outcome(self):
        with registry_override() as registry, cache_override(
            enabled=True, directory=None
        ):
            assert _solve_measures(_net())["structure"] == "miss"
            assert _solve_measures(_net(rate=3.0))["structure"] == "hit"
            counters = registry.snapshot()["counters"]
        assert counters["engine.structure.misses"] == 1
        assert counters["engine.structure.hits"] == 1
        with cache_override(enabled=False):
            assert _solve_measures(_net(rate=5.0))["structure"] == "off"

    def test_use_cache_false_skips_the_tier(self):
        with cache_override(enabled=True, directory=None) as cache:
            assert _solve_measures(_net(), use_cache=False)["structure"] == "off"
            assert len(cache.structures) == 0

    def test_verified_solves_bypass_the_tier(self):
        with cache_override(enabled=True, directory=None) as cache:
            assert _solve_measures(_net(), verify=True)["structure"] == "off"
            assert len(cache.structures) == 0
            solve_steady_state(_net(rate=2.0))  # stores the structure
            assert len(cache.structures) == 1
            measures = _solve_measures(_net(rate=4.0), verify=True)
            assert measures["structure"] == "off"
            assert cache.structures.hits == 0

    def test_verified_solve_refuses_a_cached_restamped_result(self):
        with cache_override(enabled=True, directory=None):
            solve_steady_state(_net())  # explores and stores the structure
            assert solve_steady_state(_net(rate=3.0)).structure == "hit"
            measures = _solve_measures(_net(rate=3.0), verify=True)
            assert measures["cache"] == "refused"
            assert measures["structure"] == "off"
            served = solve_steady_state(_net(rate=3.0), verify=True)
            assert served.structure == "off"
            assert served.certificate.passed

    def test_overflow_is_never_stored(self):
        with cache_override(enabled=True, directory=None) as cache:
            for _ in range(2):
                with pytest.raises(StateSpaceError, match="exceeded"):
                    solve_steady_state(_net(tokens=6), max_states=5)
            assert len(cache.structures) == 0
            assert cache.structures.misses == 2

    def test_configure_cache_resets_the_tier(self):
        with cache_override(enabled=True, directory=None) as cache:
            solve_steady_state(_net())
            assert len(cache.structures) == 1
            configure_cache(maxsize=cache.maxsize)
            assert len(active_cache().structures) == 0

    def test_budget_evicts_least_recently_used(self):
        small = tangible_reachability(_net()).structure
        large = tangible_reachability(_net(tokens=4)).structure
        tier = StructureTier(budget=small.size + large.size)
        with registry_override() as registry:
            tier.put(("small", 1), small)
            tier.put(("large", 1), large)
            assert tier.get(("small", 1)) is small  # small is now most recent
            tier.put(("other", 1), large)
            counters = registry.snapshot()["counters"]
        assert tier.get(("large", 1)) is None
        assert tier.get(("small", 1)) is small
        assert tier.evictions == 1
        assert counters["engine.structure.evictions"] == 1
        assert len(tier) == 2

    def test_structures_beyond_the_budget_are_not_stored(self):
        structure = tangible_reachability(_net(tokens=4)).structure
        tier = StructureTier(budget=structure.size - 1)
        tier.put(("big", 1), structure)
        assert len(tier) == 0

    def test_disk_entry_in_the_old_graph_layout_is_rejected(self, tmp_path):
        class OldLayout:
            """Unpickles as a TangibleGraph holding per-marking edge lists."""

            def __reduce__(self):
                reconstruct = (TangibleGraph, object, None)
                return (copyreg._reconstructor, reconstruct, {"markings": []})

        cache = SolverCache(directory=tmp_path)
        cache.put("old", OldLayout())
        cache = SolverCache(directory=tmp_path)  # memory tier empty
        assert cache.get("old") is None
        assert cache.rejected == 1
