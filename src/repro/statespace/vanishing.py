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

from itertools import compress

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.errors import StateSpaceError
from repro.obs import counter, span
from repro.statespace.graph import RawGraph, TangibleGraph, TangibleStructure

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
    """The untraced elimination behind :func:`eliminate_vanishing`.

    Every raw marking resolves to a distribution over tangible
    positions: a tangible one to itself, a vanishing one to its row of
    the absorption matrix (entries above the tolerance, normalized).
    Each timed edge takes the distribution of its target.
    """
    vanishing = graph.vanishing
    tangible = ~vanishing
    n_tangible = int(tangible.sum())
    if not n_tangible:
        raise StateSpaceError(
            "the net has no tangible markings; immediate transitions fire forever"
        )
    # position[i]: index of marking i among the tangible or the vanishing ones
    position = np.where(tangible, np.cumsum(tangible), np.cumsum(vanishing)) - 1
    absorption = _absorption_matrix(graph, position, n_tangible)

    kept = absorption > _PROBABILITY_TOLERANCE
    rows, columns = np.nonzero(kept)
    # Σ over each row's kept entries, added left to right
    totals = np.cumsum(np.where(kept, absorption, 0.0), axis=1)[:, -1]
    timed = tangible[graph.edge_source]
    targets = graph.edge_target[timed]
    _check_absorbed(graph, np.append(targets, graph.initial), position, totals, absorption)

    # the distribution of every raw marking, as one CSR-like table
    length = np.ones(graph.n_states, dtype=np.int64)
    length[vanishing] = kept.sum(axis=1)
    start = np.zeros(graph.n_states + 1, dtype=np.int64)
    np.cumsum(length, out=start[1:])
    single = np.zeros(start[-1], dtype=bool)
    single[start[:-1][tangible]] = True
    successor = np.empty(start[-1], dtype=np.int64)
    chance = np.empty(start[-1])
    successor[single] = position[tangible]
    chance[single] = 1.0
    successor[~single] = columns
    chance[~single] = absorption[rows, columns] / totals[rows]

    counts = length[targets]
    first = np.cumsum(counts) - counts
    pairs = np.repeat(start[targets] - first, counts) + np.arange(counts.sum())
    initial = slice(start[graph.initial], start[graph.initial + 1])
    initial_distribution = np.zeros(n_tangible)
    initial_distribution[successor[initial]] = chance[initial]

    structure = TangibleStructure(
        markings=list(compress(graph.markings, tangible.tolist())),
        initial_distribution=initial_distribution.tolist(),
        edge_source=position[graph.edge_source[timed]].astype(np.int64),
        edge_transition=tuple(compress(graph.edge_transition, timed.tolist())),
        edge_degree=graph.edge_degree[timed],
        edge_deterministic=graph.edge_deterministic[timed],
        target_edge=np.repeat(np.arange(len(targets), dtype=np.int64), counts),
        target=successor[pairs],
        probability=chance[pairs],
    )
    # the rates explore recorded are the ones TangibleStructure.stamp
    # computes from the net, so a re-stamped structure equals this graph
    return TangibleGraph(structure, graph.edge_value[timed])


def _check_absorbed(
    graph: RawGraph,
    resolved: np.ndarray,
    position: np.ndarray,
    totals: np.ndarray,
    absorption: np.ndarray,
) -> None:
    """Raise for the first vanishing marking in ``resolved`` whose kept
    absorption probabilities do not sum to 1."""
    leaking = np.abs(totals - 1.0) > 1e-6
    bad = graph.vanishing[resolved]
    bad[bad] = leaking[position[resolved[bad]]]
    if not bad.any():
        return
    raw = int(resolved[np.argmax(bad)])
    row = absorption[position[raw]]
    total = sum(row[row > _PROBABILITY_TOLERANCE].tolist())
    raise StateSpaceError(
        f"vanishing marking {graph.markings[raw].compact()} "
        f"absorbs with total probability {total}; the immediate "
        "transitions form a trap with no tangible escape"
    )


def _absorption_matrix(
    graph: RawGraph, position: np.ndarray, n_tangible: int
) -> np.ndarray:
    """Compute ``(I - P_VV)^(-1) P_VT`` for the vanishing set by one sparse LU.

    ``P_VV`` is assembled sparse; repeated entries (two transitions to
    one successor) are summed in edge order.
    """
    vanishing = graph.vanishing
    n_vanishing = int(vanishing.sum())
    if n_vanishing == 0:
        return np.zeros((0, n_tangible))

    immediate = vanishing[graph.edge_source]
    row = position[graph.edge_source[immediate]]
    weight = graph.edge_value[immediate]
    target = graph.edge_target[immediate]
    total_weight = np.bincount(row, weights=weight, minlength=n_vanishing)
    if not np.all(total_weight > 0):
        raw = int(np.flatnonzero(vanishing)[np.argmax(~(total_weight > 0))])
        raise StateSpaceError(
            f"vanishing marking {graph.markings[raw].compact()} has "
            "no enabled immediate transition with positive weight"
        )
    probability = weight / total_weight[row]
    column = position[target]
    inner = vanishing[target]

    p_vt = np.bincount(
        row[~inner] * n_tangible + column[~inner],
        weights=probability[~inner],
        minlength=n_vanishing * n_tangible,
    ).reshape(n_vanishing, n_tangible)

    keys, slot = np.unique(row[inner] * n_vanishing + column[inner], return_inverse=True)
    p_vv = np.bincount(slot, weights=probability[inner], minlength=len(keys))
    diagonal = np.ones(n_vanishing)
    on_diagonal = keys // n_vanishing == keys % n_vanishing
    diagonal[keys[on_diagonal] // n_vanishing] = 1.0 - p_vv[on_diagonal]
    off = keys[~on_diagonal]
    system = sp.csc_matrix(
        (
            np.concatenate([diagonal, 0.0 - p_vv[~on_diagonal]]),
            (
                np.concatenate([np.arange(n_vanishing), off // n_vanishing]),
                np.concatenate([np.arange(n_vanishing), off % n_vanishing]),
            ),
        ),
        shape=(n_vanishing, n_vanishing),
    )
    system.eliminate_zeros()
    system.sort_indices()
    try:
        return splu(system).solve(p_vt)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise StateSpaceError(
            "immediate transitions form a closed cycle among vanishing "
            "markings (Zeno behaviour); cannot eliminate"
        ) from exc
