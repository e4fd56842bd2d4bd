"""Mapping DSPN markings to the paper's (i, j, k) state triples."""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.perception.fleet import PLACE_MAINTENANCE
from repro.perception.no_rejuvenation import (
    PLACE_COMPROMISED,
    PLACE_FAILED,
    PLACE_HEALTHY,
    PLACE_REJUVENATING,
)
from repro.petri.marking import Marking


class ModuleCounts(NamedTuple):
    """The (i, j, k) triple of §IV-D.

    ``unavailable`` counts non-operational, rejuvenating, and
    under-maintenance modules — none of them produces a perception
    output.
    """

    healthy: int
    compromised: int
    unavailable: int

    @property
    def operational(self) -> int:
        """Modules currently producing outputs."""
        return self.healthy + self.compromised

    @property
    def total(self) -> int:
        return self.healthy + self.compromised + self.unavailable


def module_counts(marking: Marking) -> ModuleCounts:
    """Extract (i, j, k) from a perception-net marking.

    Works for the no-rejuvenation net (no ``Pmr`` place), the
    rejuvenation net, and the fleet product net (whose ``Pmm``
    maintenance place also holds unavailable modules).
    """
    rejuvenating = marking.get(PLACE_REJUVENATING, 0)
    maintained = marking.get(PLACE_MAINTENANCE, 0)
    return ModuleCounts(
        healthy=marking[PLACE_HEALTHY],
        compromised=marking[PLACE_COMPROMISED],
        unavailable=marking[PLACE_FAILED] + rejuvenating + maintained,
    )


def state_counts(markings: Sequence[Marking]) -> np.ndarray:
    """The (i, j, k) of every marking as an ``(n, 3)`` int64 array.

    Row ``m`` is ``module_counts(markings[m])``, read from the markings'
    count tuples in one pass; the markings share one net's places.
    """
    if not markings:
        return np.zeros((0, 3), dtype=np.int64)
    position = markings[0].place_index
    tokens = np.array([marking.counts for marking in markings], dtype=np.int64)
    unavailable = tokens[:, position[PLACE_FAILED]]
    for place in (PLACE_REJUVENATING, PLACE_MAINTENANCE):
        if place in position:
            unavailable = unavailable + tokens[:, position[place]]
    return np.column_stack(
        (
            tokens[:, position[PLACE_HEALTHY]],
            tokens[:, position[PLACE_COMPROMISED]],
            unavailable,
        )
    )
