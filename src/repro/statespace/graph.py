"""Data types for reachability graphs."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.petri.marking import Marking
from repro.petri.net import PetriNet


@dataclass(eq=False)
class RawGraph:
    """Full reachability graph with tangible and vanishing markings.

    Markings are numbered in breadth-first discovery order from the
    initial marking.  Firings are rows of the ``edge_*`` arrays, grouped
    by source in marking order (``edge_source`` is non-decreasing).  A
    vanishing marking's edges are its highest-priority enabled immediate
    transitions, valued by their un-normalized weights, with degree 1; a
    tangible marking's edges are its enabled timed transitions, valued
    by their effective rate or delay, with their enabling degree.
    """

    markings: list[Marking]
    vanishing: np.ndarray  # bool per marking
    initial: int
    edge_source: np.ndarray  # int64 source marking of each firing
    edge_target: np.ndarray  # int64 successor marking of each firing
    edge_transition: tuple[str, ...]  # transition name of each firing
    edge_value: np.ndarray  # float64 weight, effective rate or delay
    edge_degree: np.ndarray  # int64 enabling degree (1 for immediate firings)
    edge_deterministic: np.ndarray  # bool: a deterministic firing

    @property
    def n_states(self) -> int:
        return len(self.markings)


@dataclass(frozen=True)
class ExponentialEdge:
    """An exponential firing between tangible markings.

    ``targets`` is the distribution over tangible successor indices after
    vanishing elimination: a list of ``(tangible_index, probability)``
    pairs summing to 1.
    """

    transition: str
    rate: float
    targets: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class DeterministicEdge:
    """A deterministic firing between tangible markings (same layout)."""

    transition: str
    delay: float
    targets: tuple[tuple[int, float], ...]


@dataclass(eq=False)
class TangibleStructure:
    """The rate-free tangible reachability graph of a net structure.

    Which markings are reachable, which timed transitions they enable and
    where the immediate firings after each timed firing lead depend on
    the places, tokens, arcs, guards, priorities and immediate weights of
    a net, never on its exponential rates or deterministic delays.  This
    is that part of the graph; :meth:`stamp` adds the rates of one net.

    Timed edges (one per tangible marking and timed transition enabled
    there, in source order) are rows of the ``edge_*`` arrays; their
    ``(edge, successor)`` pairs after vanishing elimination are rows of
    ``target_edge`` / ``target`` / ``probability``, in edge order.
    """

    markings: list[Marking]
    initial_distribution: list[float]
    edge_source: np.ndarray  # int64 tangible source of each timed edge
    edge_transition: tuple[str, ...]  # transition name of each timed edge
    edge_degree: np.ndarray  # int64 enabling degree (server multiplicity)
    edge_deterministic: np.ndarray  # bool: deterministic (else exponential)
    target_edge: np.ndarray  # int64 timed edge of each pair
    target: np.ndarray  # int64 tangible successor of each pair
    probability: np.ndarray  # float64 probability of each pair

    @property
    def n_states(self) -> int:
        return len(self.markings)

    @property
    def size(self) -> int:
        """States plus successor pairs: the unit of the structure tier's budget."""
        return self.n_states + len(self.target)

    @cached_property
    def pair_source(self) -> np.ndarray:
        """The tangible source of each pair."""
        return self.edge_source[self.target_edge]

    @cached_property
    def pair_deterministic(self) -> np.ndarray:
        """Whether each pair belongs to a deterministic edge."""
        return self.edge_deterministic[self.target_edge]

    def stamp(self, net: PetriNet) -> "TangibleGraph":
        """This structure with ``net``'s rates and delays on its edges.

        Each exponential edge takes the effective rate of its transition
        in ``net`` at its source marking and degree, and each
        deterministic edge the transition's delay, both from ``net``'s
        compiled firing rules: the values
        :func:`~repro.statespace.reachability.explore` records, so the
        graph equals a cold exploration of ``net`` bit for bit.
        """
        rules = net.compiled().rules
        markings = self.markings
        values = [
            rules[name].value(markings[source], degree)
            for name, source, degree in zip(
                self.edge_transition,
                self.edge_source.tolist(),
                self.edge_degree.tolist(),
            )
        ]
        return TangibleGraph(self, np.asarray(values, dtype=float))


@dataclass(eq=False)
class TangibleGraph:
    """Reachability graph restricted to tangible markings.

    A :class:`TangibleStructure` with one value per timed edge: the
    effective rate of an exponential edge, the delay of a deterministic
    one.  The generator and MRGP builders read the edge arrays;
    :attr:`exponential_edges` / :attr:`deterministic_edges` give the
    same graph as per-marking edge lists.

    Attributes
    ----------
    markings:
        The tangible markings; indices below refer to this list.
    initial_distribution:
        Probability distribution over tangible markings equivalent to the
        net's initial marking (non-degenerate when the initial marking is
        vanishing).
    exponential_edges / deterministic_edges:
        Outgoing timed firings per tangible marking, with successor
        *distributions* (vanishing chains already folded in).
    """

    structure: TangibleStructure
    values: np.ndarray

    def __setstate__(self, state: dict) -> None:
        # A graph pickled before the array layout (an old disk-cache
        # entry) fails to load, so the cache rejects it and recomputes.
        if "structure" not in state:
            raise ValueError("tangible graph pickled in an older layout")
        self.__dict__.update(state)

    @property
    def markings(self) -> list[Marking]:
        return self.structure.markings

    @property
    def initial_distribution(self) -> list[float]:
        return self.structure.initial_distribution

    @property
    def n_states(self) -> int:
        return self.structure.n_states

    def has_deterministic(self) -> bool:
        """Whether any tangible marking enables a deterministic transition."""
        return bool(self.structure.edge_deterministic.any())

    @cached_property
    def exponential_edges(self) -> list[list[ExponentialEdge]]:
        return self._edge_lists(deterministic=False)

    @cached_property
    def deterministic_edges(self) -> list[list[DeterministicEdge]]:
        return self._edge_lists(deterministic=True)

    def _edge_lists(self, *, deterministic: bool) -> list:
        structure = self.structure
        kind = DeterministicEdge if deterministic else ExponentialEdge
        targets: list[list[tuple[int, float]]] = [[] for _ in self.values]
        for edge, target, probability in zip(
            structure.target_edge.tolist(),
            structure.target.tolist(),
            structure.probability.tolist(),
        ):
            targets[edge].append((target, probability))
        lists: list[list] = [[] for _ in range(self.n_states)]
        for edge, (source, name, is_deterministic, value) in enumerate(
            zip(
                structure.edge_source.tolist(),
                structure.edge_transition,
                structure.edge_deterministic.tolist(),
                self.values.tolist(),
            )
        ):
            if is_deterministic == deterministic:
                lists[source].append(kind(name, value, tuple(targets[edge])))
        return lists
