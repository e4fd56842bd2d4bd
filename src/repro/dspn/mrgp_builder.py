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

import numpy as np

from repro.errors import UnsupportedModelError
from repro.markov.uniformization import expm_and_integral
from repro.obs import span
from repro.statespace.graph import DeterministicEdge, TangibleGraph

_PROBABILITY_TOLERANCE = 1e-14


def build_mrgp_kernels(graph: TangibleGraph) -> tuple[np.ndarray, np.ndarray]:
    """Return the global kernel ``K`` and local sojourn matrix ``U``.

    Both are dense ``(n, n)`` arrays over the tangible markings of
    ``graph``.  Feed them to :func:`repro.markov.mrgp.solve_mrgp`.
    """
    with span("dspn.mrgp_builder", states=graph.n_states) as sp:
        kernel, sojourn, n_groups = _build_kernels(graph)
        sp.set(deterministic_groups=n_groups)
    return kernel, sojourn


def _build_kernels(graph: TangibleGraph) -> tuple[np.ndarray, np.ndarray, int]:
    """The untraced kernel construction behind :func:`build_mrgp_kernels`."""
    n = graph.n_states
    kernel = np.zeros((n, n))
    sojourn = np.zeros((n, n))

    det_edge_of = _deterministic_edge_per_state(graph)

    # --- markings without a deterministic transition -------------------
    for state in range(n):
        if det_edge_of[state] is not None:
            continue
        edges = graph.exponential_edges[state]
        total_rate = sum(edge.rate for edge in edges)
        if total_rate <= 0.0:
            # absorbing tangible marking: model it as a unit-length
            # self-cycle so the renewal theorem concentrates mass on it.
            kernel[state, state] = 1.0
            sojourn[state, state] = 1.0
            continue
        sojourn[state, state] = 1.0 / total_rate
        for edge in edges:
            for target, probability in edge.targets:
                kernel[state, target] += (edge.rate / total_rate) * probability

    # --- markings grouped by their deterministic transition -------------
    groups: dict[str, list[int]] = defaultdict(list)
    for state, edge in enumerate(det_edge_of):
        if edge is not None:
            groups[edge.transition].append(state)

    for transition_name, members in groups.items():
        _fill_group(graph, det_edge_of, transition_name, members, kernel, sojourn)

    return kernel, sojourn, len(groups)


def _deterministic_edge_per_state(
    graph: TangibleGraph,
) -> list[DeterministicEdge | None]:
    """The unique deterministic edge of each state (or None)."""
    result: list[DeterministicEdge | None] = []
    for state in range(graph.n_states):
        edges = graph.deterministic_edges[state]
        names = {edge.transition for edge in edges}
        if len(names) > 1:
            raise UnsupportedModelError(
                f"tangible marking {graph.markings[state].compact()} enables "
                f"{len(names)} deterministic transitions ({sorted(names)}); "
                "the MRGP solver supports at most one — use the simulator"
            )
        result.append(edges[0] if edges else None)
    return result


def _fill_group(
    graph: TangibleGraph,
    det_edge_of: list[DeterministicEdge | None],
    transition_name: str,
    members: list[int],
    kernel: np.ndarray,
    sojourn: np.ndarray,
) -> None:
    """Fill kernel/sojourn rows for all markings enabling one transition."""
    with span(
        "dspn.mrgp_builder.group", transition=transition_name, members=len(members)
    ):
        _fill_group_untraced(
            graph, det_edge_of, transition_name, members, kernel, sojourn
        )


def _fill_group_untraced(
    graph: TangibleGraph,
    det_edge_of: list[DeterministicEdge | None],
    transition_name: str,
    members: list[int],
    kernel: np.ndarray,
    sojourn: np.ndarray,
) -> None:
    delays = {det_edge_of[state].delay for state in members}  # type: ignore[union-attr]
    if len(delays) != 1:
        raise UnsupportedModelError(
            f"deterministic transition {transition_name!r} has varying delays "
            f"{sorted(delays)}; constant delay required"
        )
    delay = delays.pop()

    # exponential rates and deterministic routing out of each member,
    # both indexed by the global target marking
    n_members = len(members)
    rates = np.zeros((n_members, graph.n_states))
    routing = np.zeros((n_members, graph.n_states))
    for row, state in enumerate(members):
        for edge in graph.exponential_edges[state]:
            for target, probability in edge.targets:
                rates[row, target] += edge.rate * probability
        for target, probability in det_edge_of[state].targets:  # type: ignore[union-attr]
            routing[row, target] += probability
    rows = np.asarray(members)
    outside = np.ones(graph.n_states, dtype=bool)
    outside[rows] = False

    # subordinated generator over the members; exits stay outside it
    subgenerator = rates[:, rows]
    subgenerator[np.diag_indices(n_members)] -= rates.sum(axis=1)
    at_delay, integral = expm_and_integral(subgenerator, delay)

    # expected time in each subordinated marking before min(τ, exit)
    sojourn[np.ix_(rows, rows)] += integral
    # regeneration by leaving the enabling set before τ: the exit block
    # of exp([[S, X], [0, 0]] τ) is (∫_0^τ e^{Ss} ds) · X
    exits = np.flatnonzero(outside & rates.any(axis=0))
    if exits.size:
        leaving = integral @ rates[:, exits]
        kernel[np.ix_(rows, exits)] += np.where(
            leaving > _PROBABILITY_TOLERANCE, leaving, 0.0
        )
    # regeneration by the deterministic firing at τ
    fired = np.where(at_delay > _PROBABILITY_TOLERANCE, at_delay, 0.0)
    targets = np.flatnonzero(routing.any(axis=0))
    kernel[np.ix_(rows, targets)] += fired @ routing[:, targets]
