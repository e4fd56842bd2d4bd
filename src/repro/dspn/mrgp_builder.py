"""Construct MRGP kernels from a tangible reachability graph.

Every tangible marking is a regeneration state.  For a marking that
enables no deterministic transition, the next regeneration happens at its
first exponential firing.  For a marking ``s`` enabling deterministic
transition ``d`` (delay τ), the process evolves through the
**subordinated CTMC** — the exponential dynamics restricted to markings
that keep ``d`` enabled — until either

* an exponential firing leaves the enabling set (``d`` is disabled; the
  moment of that firing is the next regeneration under the
  enabling-memory execution policy), or
* τ elapses and ``d`` fires from wherever the subordinated process is.

The regeneration probabilities and expected sojourn times all come from
one matrix exponential of the subordinated generator ``S`` over the
markings enabling ``d`` (see
:func:`repro.markov.uniformization.expm_and_integral`): ``e^{Sτ}`` gives
where ``d`` fires from, ``∫_0^τ e^{Ss} ds`` the expected sojourn times,
and that integral times the exit rates the probabilities of leaving the
enabling set first.  States enabling ``d`` are grouped so the
(expensive) matrix exponential is computed once per deterministic
transition, not once per marking.

Supported model class: at most one deterministic transition enabled per
tangible marking, constant delays.  Everything else raises
:class:`~repro.errors.UnsupportedModelError` — use the simulator for
such nets.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.errors import UnsupportedModelError
from repro.markov.uniformization import block_layout, expm_and_integral
from repro.obs import span, tracing_active
from repro.statespace.graph import TangibleGraph

#: Kernel entries at or below this are dropped (the gradient's masks).
PROBABILITY_TOLERANCE = 1e-14


def _dense_sums(
    shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Dense array of ``values`` summed at ``(rows, cols)``.

    Each cell adds its values in input order, as a ``+=`` loop over the
    entries would, so the sums are bit-identical to that loop's.
    """
    flat = np.bincount(
        rows * shape[1] + cols, weights=values, minlength=shape[0] * shape[1]
    )
    return flat.astype(float, copy=False).reshape(shape)


def build_mrgp_kernels(graph: TangibleGraph) -> tuple[np.ndarray, np.ndarray]:
    """Return the global kernel ``K`` and local sojourn matrix ``U``.

    Both are dense ``(n, n)`` arrays over the tangible markings of
    ``graph``.  Feed them to :func:`repro.markov.mrgp.solve_mrgp`.
    """
    with span("dspn.mrgp_builder", states=graph.n_states) as sp:
        kernels = assemble_kernels(graph)
        sp.set(deterministic_groups=len(kernels.groups))
    return kernels.kernel, kernels.sojourn


@dataclass(frozen=True)
class DeterministicGroup:
    """The markings (``rows``) enabling one deterministic transition.

    ``rates[i, t]`` is the exponential rate from ``rows[i]`` to marking
    ``t``, ``routing[i, t]`` the probability that the firing lands in
    ``t``; ``exits`` are the outside markings reached at a positive rate
    and ``targets`` those the firing reaches.
    """

    transition: str
    edges: np.ndarray  # the deterministic edges, one per member
    rows: np.ndarray  # the members, ascending
    delay: float
    rates: np.ndarray
    routing: np.ndarray
    moving: np.ndarray  # the exponential pairs out of the members
    moving_rows: np.ndarray  # the member index of each of them
    subgenerator: np.ndarray  # S = rates[:, rows] − diag(rates · 1)
    exits: np.ndarray
    targets: np.ndarray


@dataclass(frozen=True)
class Kernels:
    """``K``, ``U`` and, per group, ``(group, e^{Sτ}, ∫_0^τ e^{Ss} ds)``."""

    kernel: np.ndarray
    sojourn: np.ndarray
    exit_rates: np.ndarray  # exponential exit rate of each marking
    armed: np.ndarray  # bool: the marking enables a deterministic transition
    groups: list[tuple[DeterministicGroup, np.ndarray, np.ndarray]]


def assemble_kernels(graph: TangibleGraph) -> Kernels:
    """The untraced kernel construction behind :func:`build_mrgp_kernels`."""
    structure = graph.structure
    n = graph.n_states
    values = graph.values
    deterministic = structure.edge_deterministic
    armed = _armed_states(graph)

    # --- markings without a deterministic transition -------------------
    # exit rates summed per source in edge order, as a per-edge loop would
    exponential = ~deterministic
    total = np.bincount(
        structure.edge_source[exponential], weights=values[exponential], minlength=n
    )
    free = ~armed
    # absorbing tangible marking: model it as a unit-length self-cycle so
    # the renewal theorem concentrates mass on it.
    absorbing = np.flatnonzero(free & (total <= 0.0))
    live = np.flatnonzero(free & (total > 0.0))
    sojourn = np.zeros((n, n))
    sojourn[absorbing, absorbing] = 1.0
    sojourn[live, live] = 1.0 / total[live]
    sources = structure.pair_source
    pairs = ~structure.pair_deterministic & free[sources]
    rows = sources[pairs]
    edges = structure.target_edge[pairs]
    kernel = _dense_sums(
        (n, n),
        rows,
        structure.target[pairs],
        (values[edges] / total[rows]) * structure.probability[pairs],
    )
    kernel[absorbing, absorbing] = 1.0

    # --- markings grouped by their deterministic transition -------------
    timed = np.flatnonzero(deterministic)
    groups: dict[str, list[int]] = defaultdict(list)
    for edge in timed.tolist():
        groups[structure.edge_transition[edge]].append(edge)

    filled = [
        _fill_group(
            deterministic_group(graph, transition_name, np.asarray(group_edges)),
            kernel,
            sojourn,
        )
        for transition_name, group_edges in groups.items()
    ]
    return Kernels(kernel, sojourn, total, armed, filled)


def _armed_states(graph: TangibleGraph) -> np.ndarray:
    """Which states enable a deterministic transition (at most one each)."""
    structure = graph.structure
    deterministic = structure.edge_deterministic
    counts = np.bincount(structure.edge_source[deterministic], minlength=graph.n_states)
    crowded = np.flatnonzero(counts > 1)
    if crowded.size:
        state = int(crowded[0])
        edges = np.flatnonzero(deterministic & (structure.edge_source == state))
        names = sorted(structure.edge_transition[edge] for edge in edges)
        raise UnsupportedModelError(
            f"tangible marking {graph.markings[state].compact()} enables "
            f"{len(names)} deterministic transitions ({names}); "
            "the MRGP solver supports at most one — use the simulator"
        )
    return counts > 0


def deterministic_group(
    graph: TangibleGraph, transition_name: str, group_edges: np.ndarray
) -> DeterministicGroup:
    """The group of markings whose deterministic edges are ``group_edges``."""
    structure = graph.structure
    n = graph.n_states
    delays = np.unique(graph.values[group_edges])
    if len(delays) != 1:
        raise UnsupportedModelError(
            f"deterministic transition {transition_name!r} has varying delays "
            f"{delays.tolist()}; constant delay required"
        )

    # exponential rates and deterministic routing out of each member,
    # both indexed by the global target marking
    rows = structure.edge_source[group_edges]  # the members, ascending
    n_members = len(rows)
    member_row = np.full(n, -1)
    member_row[rows] = np.arange(n_members)
    pair_row = member_row[structure.pair_source]
    edges = structure.target_edge
    moving = np.flatnonzero((pair_row >= 0) & ~structure.pair_deterministic)
    rates = _dense_sums(
        (n_members, n),
        pair_row[moving],
        structure.target[moving],
        graph.values[edges[moving]] * structure.probability[moving],
    )
    fired_pairs = np.isin(edges, group_edges)
    routing = _dense_sums(
        (n_members, n),
        pair_row[fired_pairs],
        structure.target[fired_pairs],
        structure.probability[fired_pairs],
    )
    outside = np.ones(n, dtype=bool)
    outside[rows] = False

    # subordinated generator over the members; exits stay outside it
    subgenerator = rates[:, rows]
    subgenerator[np.diag_indices(n_members)] -= rates.sum(axis=1)
    return DeterministicGroup(
        transition=transition_name,
        edges=group_edges,
        rows=rows,
        delay=float(delays[0]),
        rates=rates,
        routing=routing,
        moving=moving,
        moving_rows=pair_row[moving],
        subgenerator=subgenerator,
        exits=np.flatnonzero(outside & rates.any(axis=0)),
        targets=np.flatnonzero(routing.any(axis=0)),
    )


def _fill_group(
    group: DeterministicGroup, kernel: np.ndarray, sojourn: np.ndarray
) -> tuple[DeterministicGroup, np.ndarray, np.ndarray]:
    """Fill the group's rows; return it with ``e^{Sτ}`` and ``∫_0^τ e^{Ss} ds``."""
    rows = group.rows
    with span(
        "dspn.mrgp_builder.group", transition=group.transition, members=len(rows)
    ) as sp:
        at_delay, integral = expm_and_integral(group.subgenerator, group.delay)
        if tracing_active():  # the layout is recomputed only for a reader
            sp.set(blocks=len(block_layout(group.subgenerator)[1]) - 1)

    # expected time in each subordinated marking before min(τ, exit)
    sojourn[np.ix_(rows, rows)] += integral
    # regeneration by leaving the enabling set before τ: the exit block
    # of exp([[S, X], [0, 0]] τ) is (∫_0^τ e^{Ss} ds) · X
    exits = group.exits
    if exits.size:
        leaving = integral @ group.rates[:, exits]
        kernel[np.ix_(rows, exits)] += np.where(
            leaving > PROBABILITY_TOLERANCE, leaving, 0.0
        )
    # regeneration by the deterministic firing at τ
    fired = np.where(at_delay > PROBABILITY_TOLERANCE, at_delay, 0.0)
    targets = group.targets
    kernel[np.ix_(rows, targets)] += fired @ group.routing[:, targets]
    return group, at_delay, integral
