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
* Enabling, firing and edge values come from the net's compiled firing
  rules (:meth:`PetriNet.compiled`); markings are interned by their
  count tuples and edges recorded as rows of
  :class:`~repro.statespace.graph.RawGraph`'s arrays.
* Deterministic edges carry the fixed delay; conflict resolution between
  several deterministic transitions is left to the solver (the MRGP
  solver rejects markings enabling more than one).
"""

from __future__ import annotations

import numpy as np

from repro.errors import StateSpaceError
from repro.obs import counter, span
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.statespace.graph import RawGraph


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
        sp.set(states=graph.n_states, vanishing=int(graph.vanishing.sum()))
    return graph


def _explore(net: PetriNet, *, max_states: int) -> RawGraph:
    """The untraced exploration loop behind :func:`explore`.

    Markings are interned by their count tuples and processed in index
    order, which is the breadth-first order; each firing is one row
    ``(source, target, transition, value, degree, deterministic)``.
    """
    compiled = net.compiled()
    levels, timed = compiled.levels, compiled.timed
    place_index = net.place_index
    initial = net.initial_marking()
    markings: list[Marking] = [initial]
    index: dict[tuple[int, ...], int] = {initial.counts: 0}
    vanishing: list[bool] = []
    edges: list[tuple] = []

    state = 0
    while state < len(markings):
        marking = markings[state]
        counts = marking.counts
        firings = None
        for level in levels:
            competing = [rule for rule in level if rule.degree(counts, marking)]
            if competing:
                firings = [(rule, 1) for rule in competing]
                break
        vanishing.append(firings is not None)
        if firings is None:
            firings = []
            for rule in timed:
                degree = rule.degree(counts, marking)
                if degree:
                    firings.append((rule, degree))
        for rule, degree in firings:
            successor = rule.successor(counts, marking)
            target = index.get(successor)
            if target is None:
                target = len(markings)
                if target >= max_states:
                    raise StateSpaceError(
                        f"reachability exploration exceeded {max_states} markings; "
                        "the net may be unbounded (raise max_states to override)"
                    )
                index[successor] = target
                markings.append(Marking(place_index, successor))
            edges.append(
                (
                    state,
                    target,
                    rule.name,
                    rule.value(marking, degree),
                    degree,
                    rule.deterministic,
                )
            )
        state += 1

    source, target, names, values, degrees, deterministic = (
        zip(*edges) if edges else ((),) * 6
    )
    return RawGraph(
        markings=markings,
        vanishing=np.array(vanishing, dtype=bool),
        initial=0,
        edge_source=np.array(source, dtype=np.int64),
        edge_target=np.array(target, dtype=np.int64),
        edge_transition=names,
        edge_value=np.array(values, dtype=float),
        edge_degree=np.array(degrees, dtype=np.int64),
        edge_deterministic=np.array(deterministic, dtype=bool),
    )
