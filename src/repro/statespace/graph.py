"""Data types for reachability graphs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.petri.marking import Marking


@dataclass(frozen=True)
class RawEdge:
    """A single firing in the raw (pre-elimination) reachability graph."""

    transition: str
    target: int
    kind: str  # "immediate" | "exponential" | "deterministic"
    value: float  # weight (immediate), rate (exponential) or delay (deterministic)


@dataclass
class RawGraph:
    """Full reachability graph with tangible and vanishing markings.

    ``edges[i]`` lists the firings out of marking ``i``.  For vanishing
    markings only the highest-priority enabled immediate transitions are
    listed (their ``value`` is the un-normalized weight); for tangible
    markings all enabled timed transitions are listed.
    """

    markings: list[Marking]
    edges: list[list[RawEdge]]
    vanishing: list[bool]
    initial: int

    @property
    def n_states(self) -> int:
        return len(self.markings)

    def tangible_indices(self) -> list[int]:
        return [i for i, is_vanishing in enumerate(self.vanishing) if not is_vanishing]


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


@dataclass
class TangibleGraph:
    """Reachability graph restricted to tangible markings.

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

    markings: list[Marking]
    initial_distribution: list[float]
    exponential_edges: list[list[ExponentialEdge]] = field(default_factory=list)
    deterministic_edges: list[list[DeterministicEdge]] = field(default_factory=list)

    @property
    def n_states(self) -> int:
        return len(self.markings)

    def has_deterministic(self) -> bool:
        """Whether any tangible marking enables a deterministic transition."""
        return any(edges for edges in self.deterministic_edges)

    def exit_rate(self, state: int) -> float:
        """Total exponential rate out of ``state``."""
        return sum(edge.rate for edge in self.exponential_edges[state])
