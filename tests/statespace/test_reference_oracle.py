"""The array explorer and elimination against a per-object reference.

The reference is the earlier implementation, kept here the way
``tests/markov/test_stationary_accuracy.py`` keeps its GTH references:
per-arc enabling and firing on :class:`Marking` objects, a breadth-first
search over a queue recording one edge object per firing, and a
per-marking resolution of every timed edge through a dense ``P_VV``.
Its one change is the capacity test, which counts what a firing takes
from an output place (``M[p] - consumed + produced > capacity``).

Both must give the same markings in the same order, the same raw edges,
``np.array_equal`` arrays (with equal dtypes) for every
:class:`TangibleStructure` field and for the stamped values, and the
same error type and message when a net cannot be explored or
eliminated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from scipy.sparse.linalg import splu

from repro.errors import ModelDefinitionError, ReproError, StateSpaceError
from repro.perception.fleet import FleetParameters, build_fleet_net
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_rejuvenation_net
from repro.petri import NetBuilder, ServerSemantics, count
from repro.petri.transition import (
    DeterministicTransition,
    ExponentialTransition,
    ImmediateTransition,
)
from repro.statespace import eliminate_vanishing, explore

# ----------------------------------------------------------------------
# the reference: per-arc firing rule
# ----------------------------------------------------------------------


def reference_degree(net, transition, marking) -> int:
    if not transition.guard_satisfied(marking):
        return 0
    for arc in net.inhibitor_arcs(transition.name):
        if marking[arc.place] >= arc.multiplicity_in(marking):
            return 0
    degree = None
    for arc in net.input_arcs(transition.name):
        needed = arc.multiplicity_in(marking)
        if needed == 0:
            continue
        available = marking[arc.place] // needed
        degree = available if degree is None else min(degree, available)
        if degree == 0:
            return 0
    if degree is None:
        degree = 1
    for arc in net.output_arcs(transition.name):
        place = net.places[arc.place]
        if place.capacity is not None:
            produced = arc.multiplicity_in(marking)
            consumed = sum(
                a.multiplicity_in(marking)
                for a in net.input_arcs(transition.name)
                if a.place == arc.place
            )
            if produced and marking[arc.place] - consumed + produced > place.capacity:
                return 0
    return degree


def reference_fire(net, transition, marking):
    if reference_degree(net, transition, marking) == 0:
        raise ModelDefinitionError(
            f"transition {transition.name!r} is not enabled in {marking.compact()}"
        )
    delta: dict[str, int] = {}
    for arc in net.input_arcs(transition.name):
        delta[arc.place] = delta.get(arc.place, 0) - arc.multiplicity_in(marking)
    for arc in net.output_arcs(transition.name):
        delta[arc.place] = delta.get(arc.place, 0) + arc.multiplicity_in(marking)
    return marking.after(delta)


# ----------------------------------------------------------------------
# the reference: exploration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RawEdge:
    transition: str
    target: int
    kind: str  # "immediate" | "exponential" | "deterministic"
    value: float
    degree: int = 1


@dataclass
class ReferenceGraph:
    markings: list
    edges: list
    vanishing: list
    initial: int

    @property
    def n_states(self) -> int:
        return len(self.markings)

    def tangible_indices(self) -> list[int]:
        return [i for i, is_vanishing in enumerate(self.vanishing) if not is_vanishing]


def reference_explore(net, *, max_states: int) -> ReferenceGraph:
    initial = net.initial_marking()
    markings = [initial]
    index = {initial: 0}
    edges = []
    vanishing = []

    queue = deque([0])
    immediates = net.immediate_transitions()

    while queue:
        state = queue.popleft()
        marking = markings[state]

        enabled_immediate = [
            t for t in immediates if reference_degree(net, t, marking) > 0
        ]
        state_edges = []
        if enabled_immediate:
            top_priority = max(t.priority for t in enabled_immediate)
            competing = [t for t in enabled_immediate if t.priority == top_priority]
            vanishing.append(True)
            for transition in competing:
                successor = reference_fire(net, transition, marking)
                target = _intern(successor, markings, index, queue, max_states)
                state_edges.append(
                    RawEdge(
                        transition=transition.name,
                        target=target,
                        kind="immediate",
                        value=transition.weight_in(marking),
                    )
                )
        else:
            vanishing.append(False)
            for transition in net.transitions.values():
                if isinstance(transition, ImmediateTransition):
                    continue
                degree = reference_degree(net, transition, marking)
                if degree == 0:
                    continue
                successor = reference_fire(net, transition, marking)
                target = _intern(successor, markings, index, queue, max_states)
                if isinstance(transition, ExponentialTransition):
                    state_edges.append(
                        RawEdge(
                            transition=transition.name,
                            target=target,
                            kind="exponential",
                            value=transition.rate_in(marking, degree),
                            degree=degree,
                        )
                    )
                elif isinstance(transition, DeterministicTransition):
                    state_edges.append(
                        RawEdge(
                            transition=transition.name,
                            target=target,
                            kind="deterministic",
                            value=transition.delay,
                            degree=degree,
                        )
                    )
        edges.append(state_edges)

    return ReferenceGraph(markings=markings, edges=edges, vanishing=vanishing, initial=0)


def _intern(marking, markings, index, queue, max_states) -> int:
    found = index.get(marking)
    if found is not None:
        return found
    if len(markings) >= max_states:
        raise StateSpaceError(
            f"reachability exploration exceeded {max_states} markings; "
            "the net may be unbounded (raise max_states to override)"
        )
    position = len(markings)
    markings.append(marking)
    index[marking] = position
    queue.append(position)
    return position


# ----------------------------------------------------------------------
# the reference: vanishing elimination
# ----------------------------------------------------------------------

_PROBABILITY_TOLERANCE = 1e-9


def reference_eliminate(graph: ReferenceGraph) -> dict:
    tangible_indices = graph.tangible_indices()
    tangible_position = {raw: pos for pos, raw in enumerate(tangible_indices)}
    vanishing_indices = [i for i in range(graph.n_states) if graph.vanishing[i]]
    vanishing_position = {raw: pos for pos, raw in enumerate(vanishing_indices)}

    if not tangible_indices:
        raise StateSpaceError(
            "the net has no tangible markings; immediate transitions fire forever"
        )

    absorption = _absorption_matrix(
        graph, vanishing_indices, vanishing_position, tangible_position
    )

    resolved = {}

    def resolve(raw_target):
        if not graph.vanishing[raw_target]:
            return ((tangible_position[raw_target], 1.0),)
        if raw_target in resolved:
            return resolved[raw_target]
        row = absorption[vanishing_position[raw_target]]
        positions = np.flatnonzero(row > _PROBABILITY_TOLERANCE)
        probabilities = row[positions].tolist()
        total = sum(probabilities)
        if abs(total - 1.0) > 1e-6:
            raise StateSpaceError(
                f"vanishing marking {graph.markings[raw_target].compact()} "
                f"absorbs with total probability {total}; the immediate "
                "transitions form a trap with no tangible escape"
            )
        resolved[raw_target] = tuple(
            (pos, prob / total) for pos, prob in zip(positions.tolist(), probabilities)
        )
        return resolved[raw_target]

    sources, transitions, degrees, deterministic, values = [], [], [], [], []
    target_edge, targets, probabilities = [], [], []
    for source, raw_index in enumerate(tangible_indices):
        for edge in graph.edges[raw_index]:
            timed = len(values)
            sources.append(source)
            transitions.append(edge.transition)
            degrees.append(edge.degree)
            deterministic.append(edge.kind == "deterministic")
            values.append(edge.value)
            for target, probability in resolve(edge.target):
                target_edge.append(timed)
                targets.append(target)
                probabilities.append(probability)

    initial_distribution = [0.0] * len(tangible_indices)
    for pos, prob in resolve(graph.initial):
        initial_distribution[pos] += prob

    return {
        "markings": [graph.markings[i] for i in tangible_indices],
        "initial_distribution": initial_distribution,
        "edge_source": np.asarray(sources, dtype=np.int64),
        "edge_transition": tuple(transitions),
        "edge_degree": np.asarray(degrees, dtype=np.int64),
        "edge_deterministic": np.asarray(deterministic, dtype=bool),
        "target_edge": np.asarray(target_edge, dtype=np.int64),
        "target": np.asarray(targets, dtype=np.int64),
        "probability": np.asarray(probabilities, dtype=float),
        "values": np.asarray(values, dtype=float),
    }


def _absorption_matrix(graph, vanishing_indices, vanishing_position, tangible_position):
    n_vanishing = len(vanishing_indices)
    n_tangible = len(tangible_position)
    if n_vanishing == 0:
        return np.zeros((0, n_tangible))

    p_vv = np.zeros((n_vanishing, n_vanishing))
    p_vt = np.zeros((n_vanishing, n_tangible))
    for row, raw_index in enumerate(vanishing_indices):
        edges = graph.edges[raw_index]
        total_weight = sum(edge.value for edge in edges)
        if total_weight <= 0:
            raise StateSpaceError(
                f"vanishing marking {graph.markings[raw_index].compact()} has "
                "no enabled immediate transition with positive weight"
            )
        for edge in edges:
            probability = edge.value / total_weight
            if graph.vanishing[edge.target]:
                p_vv[row, vanishing_position[edge.target]] += probability
            else:
                p_vt[row, tangible_position[edge.target]] += probability

    system = sp.csc_matrix(np.eye(n_vanishing) - p_vv)
    try:
        return splu(system).solve(p_vt)
    except RuntimeError as exc:
        raise StateSpaceError(
            "immediate transitions form a closed cycle among vanishing "
            "markings (Zeno behaviour); cannot eliminate"
        ) from exc


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

FIELDS = (
    "edge_source",
    "edge_degree",
    "edge_deterministic",
    "target_edge",
    "target",
    "probability",
)


def _outcome(function, *args, **kwargs):
    """``(value, None)`` or ``(None, (type, message))``."""
    try:
        return function(*args, **kwargs), None
    except (ReproError, ZeroDivisionError) as exc:
        return None, (type(exc), str(exc))


def assert_same_as_reference(net, *, max_states: int = 200_000) -> None:
    reference, reference_error = _outcome(reference_explore, net, max_states=max_states)
    raw, error = _outcome(explore, net, max_states=max_states)
    assert error == reference_error
    if error is not None:
        return
    assert [m.counts for m in raw.markings] == [m.counts for m in reference.markings]
    assert raw.vanishing.dtype == bool
    assert raw.vanishing.tolist() == reference.vanishing
    rows = [
        (source, edge.target, edge.transition, edge.value, edge.degree, edge.kind)
        for source, edges in enumerate(reference.edges)
        for edge in edges
    ]
    kinds = np.where(
        raw.vanishing[raw.edge_source],
        "immediate",
        np.where(raw.edge_deterministic, "deterministic", "exponential"),
    )
    assert rows == list(
        zip(
            raw.edge_source.tolist(),
            raw.edge_target.tolist(),
            raw.edge_transition,
            raw.edge_value.tolist(),
            raw.edge_degree.tolist(),
            kinds.tolist(),
        )
    )

    expected, reference_error = _outcome(reference_eliminate, reference)
    graph, error = _outcome(eliminate_vanishing, raw)
    assert error == reference_error
    if error is not None:
        return
    structure = graph.structure
    assert [m.counts for m in structure.markings] == [
        m.counts for m in expected["markings"]
    ]
    assert structure.initial_distribution == expected["initial_distribution"]
    assert structure.edge_transition == expected["edge_transition"]
    assert all(isinstance(name, str) for name in structure.edge_transition)
    for name in FIELDS:
        actual = getattr(structure, name)
        assert actual.dtype == expected[name].dtype, name
        assert np.array_equal(actual, expected[name]), name
    assert graph.values.dtype == expected["values"].dtype
    assert np.array_equal(graph.values, expected["values"])
    restamped = structure.stamp(net)
    assert np.array_equal(restamped.values, expected["values"])


# ----------------------------------------------------------------------
# the perception nets
# ----------------------------------------------------------------------


def _perception_nets():
    for versions in (4, 8, 16):
        parameters = PerceptionParameters(n_modules=versions, f=1, rejuvenation=False)
        yield f"no-rejuvenation-{versions}", build_no_rejuvenation_net(parameters)
        yield f"no-rejuvenation-{versions}-infinite", build_no_rejuvenation_net(
            parameters, server=ServerSemantics.INFINITE
        )
    for versions, f, r in ((6, 1, 1), (8, 1, 2), (12, 1, 1), (14, 1, 2), (16, 1, 1)):
        parameters = PerceptionParameters(n_modules=versions, f=f, r=r, rejuvenation=True)
        for clock in ("deterministic", "exponential"):
            yield f"rejuvenation-{versions}-{r}-{clock}", build_rejuvenation_net(
                parameters, clock=clock
            )
        yield f"rejuvenation-{versions}-{r}-lost-ticks", build_rejuvenation_net(
            parameters, lost_ticks=True
        )
    six = PerceptionParameters.six_version_defaults()
    for selection in ("oracle", "anti-oracle"):
        yield f"rejuvenation-6-{selection}", build_rejuvenation_net(six, selection=selection)
    yield "fleet", build_fleet_net(
        FleetParameters(
            perception=PerceptionParameters(
                n_modules=6, f=1, r=1, rejuvenation=True
            ),
            crews=2,
            clock_slots=3,
        )
    )


@pytest.mark.parametrize(
    "net", [net for _, net in _perception_nets()], ids=[name for name, _ in _perception_nets()]
)
def test_perception_nets_match_reference(net):
    assert_same_as_reference(net)


# ----------------------------------------------------------------------
# hand-made edge cases
# ----------------------------------------------------------------------


def _net(build):
    builder = NetBuilder("case")
    build(builder)
    return builder.build()


def test_immediate_cycle_with_escape_matches_reference():
    def build(b):
        b.place("A", tokens=1).place("B").place("Out")
        b.immediate("ab", weight=1.0, inputs={"A": 1}, outputs={"B": 1})
        b.immediate("ba", weight=2.0, inputs={"B": 1}, outputs={"A": 1})
        b.immediate("escape", weight=0.5, inputs={"B": 1}, outputs={"Out": 1})
        b.exponential("park", rate=1.0, inputs={"Out": 1}, outputs={"A": 1})

    assert_same_as_reference(_net(build))


def test_vanishing_initial_marking_split_matches_reference():
    def build(b):
        b.place("S", tokens=1).place("X").place("Y").place("Z")
        b.immediate("sx", weight=1.0, inputs={"S": 1}, outputs={"X": 1})
        b.immediate("sy", weight=3.0, inputs={"S": 1}, outputs={"Y": 1})
        b.immediate("sz", weight=0.25, inputs={"S": 1}, outputs={"Z": 1})
        b.exponential("x", rate=1.0, inputs={"X": 1}, outputs={"S": 1})
        b.exponential("y", rate=2.0, inputs={"Y": 1}, outputs={"S": 1})
        b.deterministic("z", delay=3.0, inputs={"Z": 1}, outputs={"S": 1})

    assert_same_as_reference(_net(build))


def test_repeated_immediate_successors_sum_in_edge_order():
    """Three transitions to one vanishing successor and three to one
    tangible one: the accumulated probabilities must match bit for bit."""

    def build(b):
        b.place("A", tokens=1).place("B").place("C").place("D")
        for i, weight in enumerate((0.1, 0.7, 0.3)):
            b.immediate(f"ab{i}", weight=weight, inputs={"A": 1}, outputs={"B": 1})
        for i, weight in enumerate((0.2, 0.9, 0.4)):
            b.immediate(f"ac{i}", weight=weight, inputs={"A": 1}, outputs={"C": 1})
        b.immediate("bc", weight=1.0, inputs={"B": 1}, outputs={"C": 1})
        b.immediate("ba", weight=0.6, inputs={"B": 1}, outputs={"A": 1})
        b.exponential("cd", rate=1.0, inputs={"C": 1}, outputs={"D": 1})
        b.exponential("da", rate=1.0, inputs={"D": 1}, outputs={"A": 1})

    assert_same_as_reference(_net(build))


def test_vanishing_trap_error_matches_reference():
    def build(b):
        b.place("A", tokens=1).place("B").place("C")
        b.immediate("ab", inputs={"A": 1}, outputs={"B": 1})
        b.immediate("ba", inputs={"B": 1}, outputs={"A": 1})
        b.exponential("never", rate=1.0, inputs={"C": 1}, outputs={"A": 1})

    net = _net(build)
    with pytest.raises(StateSpaceError, match="no tangible markings"):
        eliminate_vanishing(explore(net))
    assert_same_as_reference(net)


def test_closed_vanishing_cycle_error_matches_reference():
    def build(b):
        b.place("A", tokens=1).place("B").place("C").place("T")
        b.exponential("go", rate=1.0, inputs={"T": 1}, outputs={"A": 1})
        b.immediate("ab", inputs={"A": 1}, outputs={"B": 1})
        b.immediate("ba", inputs={"B": 1}, outputs={"A": 1})

    def build_with_tangible(b):
        b.place("T", tokens=1).place("A").place("B")
        b.exponential("go", rate=1.0, inputs={"T": 1}, outputs={"A": 1})
        b.immediate("ab", inputs={"A": 1}, outputs={"B": 1})
        b.immediate("ba", inputs={"B": 1}, outputs={"A": 1})

    net = _net(build_with_tangible)
    with pytest.raises(StateSpaceError, match="closed cycle"):
        eliminate_vanishing(explore(net))
    assert_same_as_reference(net)
    assert_same_as_reference(_net(build))


def test_max_states_error_matches_reference():
    def build(b):
        b.place("A", tokens=1).place("B")
        b.exponential("t", rate=1.0, inputs={"A": 1}, outputs={"A": 1, "B": 1})

    net = _net(build)
    with pytest.raises(StateSpaceError, match="exceeded 50 markings"):
        explore(net, max_states=50)
    assert_same_as_reference(net, max_states=50)


# ----------------------------------------------------------------------
# hypothesis-generated small nets
# ----------------------------------------------------------------------

PLACES = ("A", "B", "C", "D")


@st.composite
def multiplicities(draw, place):
    """A constant arc weight or a marking-dependent one (possibly 0)."""
    if draw(st.booleans()):
        return draw(st.integers(1, 2))
    cap = draw(st.integers(0, 2))
    return lambda marking, place=place, cap=cap: min(marking[place], cap)


@st.composite
def quantities(draw):
    """A positive constant or a positive marking-dependent expression."""
    if draw(st.booleans()):
        return draw(st.floats(0.1, 5.0))
    place = draw(st.sampled_from(PLACES))
    scale = draw(st.floats(0.1, 3.0))
    return count(place) * scale + draw(st.floats(0.05, 2.0))


@st.composite
def guards(draw):
    if draw(st.booleans()):
        return None
    left, right = draw(st.lists(st.sampled_from(PLACES), min_size=2, max_size=2))
    bound = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(("<", ">=", "==")))
    expression = count(left) + count(right)
    return {
        "<": expression < bound,
        ">=": expression >= bound,
        "==": expression == bound,
    }[kind]


@st.composite
def small_nets(draw):
    builder = NetBuilder("random")
    for place in PLACES:
        capacity = draw(st.one_of(st.none(), st.integers(1, 4)))
        tokens = draw(st.integers(0, capacity if capacity is not None else 3))
        builder.place(place, tokens=tokens, capacity=capacity)
    n_transitions = draw(st.integers(2, 8))
    for index in range(n_transitions):
        kind = draw(
            st.sampled_from(("immediate", "exponential", "exponential", "deterministic"))
        )
        inputs = {
            place: draw(multiplicities(place))
            for place in draw(st.lists(st.sampled_from(PLACES), max_size=2, unique=True))
        }
        outputs = {
            place: draw(multiplicities(place))
            for place in draw(st.lists(st.sampled_from(PLACES), max_size=2, unique=True))
        }
        inhibitors = {
            place: draw(st.integers(1, 3))
            for place in draw(st.lists(st.sampled_from(PLACES), max_size=1, unique=True))
        }
        guard = draw(guards())
        if not inputs and not inhibitors and guard is None:
            inputs = {draw(st.sampled_from(PLACES)): 1}
        arcs = {"inputs": inputs, "outputs": outputs, "inhibitors": inhibitors}
        name = f"t{index}"
        if kind == "immediate":
            builder.immediate(
                name,
                weight=draw(quantities()),
                priority=draw(st.integers(0, 2)),
                guard=guard,
                **arcs,
            )
        elif kind == "exponential":
            builder.exponential(
                name,
                rate=draw(quantities()),
                server=draw(st.sampled_from(tuple(ServerSemantics))),
                guard=guard,
                **arcs,
            )
        else:
            builder.deterministic(
                name, delay=draw(st.floats(0.1, 5.0)), guard=guard, **arcs
            )
    return builder.build()


@given(small_nets())
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_small_nets_match_reference(net):
    assert_same_as_reference(net, max_states=300)
