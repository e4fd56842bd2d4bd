"""Reachability analysis and vanishing-marking elimination.

Turning a DSPN into a solvable stochastic process takes two steps:

1. :func:`~repro.statespace.reachability.explore` enumerates all markings
   reachable from the initial marking and classifies each as *tangible*
   (only timed transitions enabled — time passes there) or *vanishing*
   (at least one immediate transition enabled — left in zero time).
2. :func:`~repro.statespace.vanishing.eliminate_vanishing` removes the
   vanishing markings, redirecting every timed firing to the distribution
   of tangible markings ultimately reached through the immediate firings
   (including immediate cycles, handled by a linear solve).

The result, a :class:`~repro.statespace.graph.TangibleGraph`, is consumed
by the CTMC and MRGP builders in :mod:`repro.dspn`.  It is a rate-free
:class:`~repro.statespace.graph.TangibleStructure` stamped with one net's
rates and delays; the engine keeps structures and re-stamps them for
nets that differ only in rates (``docs/ENGINE.md``).
"""

from repro.statespace.graph import (
    DeterministicEdge,
    ExponentialEdge,
    RawGraph,
    TangibleGraph,
    TangibleStructure,
)
from repro.statespace.reachability import explore
from repro.statespace.vanishing import eliminate_vanishing

__all__ = [
    "DeterministicEdge",
    "ExponentialEdge",
    "RawGraph",
    "TangibleGraph",
    "TangibleStructure",
    "eliminate_vanishing",
    "explore",
]


def tangible_reachability(net, *, max_states: int = 200_000) -> TangibleGraph:
    """Explore ``net`` and eliminate vanishing markings in one call."""
    return eliminate_vanishing(explore(net, max_states=max_states))
