"""Vanishing-marking elimination.

A vanishing marking is left in zero time through one of its enabled
immediate transitions, chosen with probability proportional to its
weight.  Chains (and even cycles) of vanishing markings are collapsed by
solving the absorption problem of the embedded jump chain restricted to
the vanishing set:

    A = (I - P_VV)^(-1) · P_VT

where ``P_VV``/``P_VT`` hold the one-step probabilities from vanishing
markings to vanishing/tangible markings.  Row ``A[v]`` is the probability
distribution over tangible markings ultimately reached from ``v``.

Immediate cycles with no escape to a tangible marking (a "vanishing
trap") make the system singular and raise
:class:`~repro.errors.StateSpaceError` — such a net has Zeno behaviour
and no meaningful stochastic semantics.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.errors import StateSpaceError
from repro.obs import counter, span
from repro.statespace.graph import (
    DeterministicEdge,
    ExponentialEdge,
    RawGraph,
    TangibleGraph,
)

_PROBABILITY_TOLERANCE = 1e-9


def eliminate_vanishing(graph: RawGraph) -> TangibleGraph:
    """Collapse vanishing markings of ``graph`` into a tangible-only graph."""
    with span("statespace.vanishing") as sp:
        tangible = _eliminate(graph)
        eliminated = graph.n_states - tangible.n_states
        counter("statespace.vanishing_eliminated").inc(eliminated)
        sp.set(tangible=tangible.n_states, eliminated=eliminated)
    return tangible


def _eliminate(graph: RawGraph) -> TangibleGraph:
    """The untraced elimination behind :func:`eliminate_vanishing`."""
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

    resolved: dict[int, tuple[tuple[int, float], ...]] = {}

    def resolve(raw_target: int) -> tuple[tuple[int, float], ...]:
        """Distribution over tangible positions reached from ``raw_target``."""
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

    exponential_edges: list[list[ExponentialEdge]] = []
    deterministic_edges: list[list[DeterministicEdge]] = []
    for raw_index in tangible_indices:
        exp_out: list[ExponentialEdge] = []
        det_out: list[DeterministicEdge] = []
        for edge in graph.edges[raw_index]:
            targets = resolve(edge.target)
            if edge.kind == "exponential":
                exp_out.append(
                    ExponentialEdge(transition=edge.transition, rate=edge.value, targets=targets)
                )
            elif edge.kind == "deterministic":
                det_out.append(
                    DeterministicEdge(transition=edge.transition, delay=edge.value, targets=targets)
                )
            else:  # pragma: no cover - tangible markings have no immediate edges
                raise StateSpaceError("immediate edge out of a tangible marking")
        exponential_edges.append(exp_out)
        deterministic_edges.append(det_out)

    initial_distribution = [0.0] * len(tangible_indices)
    for pos, prob in resolve(graph.initial):
        initial_distribution[pos] += prob

    return TangibleGraph(
        markings=[graph.markings[i] for i in tangible_indices],
        initial_distribution=initial_distribution,
        exponential_edges=exponential_edges,
        deterministic_edges=deterministic_edges,
    )


def _absorption_matrix(
    graph: RawGraph,
    vanishing_indices: list[int],
    vanishing_position: dict[int, int],
    tangible_position: dict[int, int],
) -> np.ndarray:
    """Compute ``(I - P_VV)^(-1) P_VT`` for the vanishing set by one sparse LU."""
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
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise StateSpaceError(
            "immediate transitions form a closed cycle among vanishing "
            "markings (Zeno behaviour); cannot eliminate"
        ) from exc
