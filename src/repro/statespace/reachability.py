"""Reachability-graph generation.

Breadth-first exploration of the marking space with on-the-fly
classification into tangible and vanishing markings.  The exploration is
bounded by ``max_states``; exceeding the bound raises
:class:`~repro.errors.StateSpaceError` (the net may be unbounded).

Semantics implemented here:

* In a marking where immediate transitions are enabled, only those at the
  **highest enabled priority level** compete; timed transitions never
  fire in such (vanishing) markings.
* Exponential edges carry the *effective* rate per
  :meth:`ExponentialTransition.rate_in` (single- vs infinite-server) and
  the enabling degree it was computed from, so a structure can later be
  re-rated (:meth:`~repro.statespace.graph.TangibleStructure.stamp`).
* Deterministic edges carry the fixed delay; conflict resolution between
  several deterministic transitions is left to the solver (the MRGP
  solver rejects markings enabling more than one).
"""

from __future__ import annotations

from collections import deque

from repro.errors import StateSpaceError
from repro.obs import counter, span
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.transition import (
    DeterministicTransition,
    ExponentialTransition,
    ImmediateTransition,
)
from repro.statespace.graph import RawEdge, RawGraph


def explore(net: PetriNet, *, max_states: int = 200_000) -> RawGraph:
    """Generate the raw reachability graph of ``net``.

    Parameters
    ----------
    net:
        The (validated) Petri net to explore.
    max_states:
        Safety bound on the number of distinct markings.

    Raises
    ------
    StateSpaceError
        If more than ``max_states`` markings are reachable, or if some
        marking is a deadlock for a model that requires progress (a
        deadlock is *not* an error per se — deadlocked tangible markings
        are absorbing states).
    """
    with span("statespace.explore", net=net.name) as sp:
        graph = _explore(net, max_states=max_states)
        counter("statespace.states_explored").inc(graph.n_states)
        sp.set(states=graph.n_states, vanishing=sum(graph.vanishing))
    return graph


def _explore(net: PetriNet, *, max_states: int) -> RawGraph:
    """The untraced exploration loop behind :func:`explore`."""
    initial = net.initial_marking()
    markings: list[Marking] = [initial]
    index: dict[Marking, int] = {initial: 0}
    edges: list[list[RawEdge]] = []
    vanishing: list[bool] = []

    queue: deque[int] = deque([0])
    immediates = net.immediate_transitions()

    while queue:
        state = queue.popleft()
        marking = markings[state]

        enabled_immediate = [
            t for t in immediates if net.is_enabled(t, marking)
        ]
        state_edges: list[RawEdge] = []
        if enabled_immediate:
            top_priority = max(t.priority for t in enabled_immediate)
            competing = [t for t in enabled_immediate if t.priority == top_priority]
            vanishing.append(True)
            for transition in competing:
                successor = net.fire(transition, marking)
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
                degree = net.enabling_degree(transition, marking)
                if degree == 0:
                    continue
                successor = net.fire(transition, marking)
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
                else:  # pragma: no cover - future transition kinds
                    raise StateSpaceError(
                        f"unsupported transition kind {transition.kind!r}"
                    )
        edges.append(state_edges)

    return RawGraph(markings=markings, edges=edges, vanishing=vanishing, initial=0)


def _intern(
    marking: Marking,
    markings: list[Marking],
    index: dict[Marking, int],
    queue: deque[int],
    max_states: int,
) -> int:
    """Return the index of ``marking``, registering it if new."""
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
