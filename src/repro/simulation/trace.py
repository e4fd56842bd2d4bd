"""Trajectory analyses of a batch run: census vs π, and error bursts.

The analytic pipeline produces the stationary distribution π over module
states (i, j, k).  The batch runtime counts how many group-rounds it
voted in each census (:attr:`BatchReport.census`); this module compares
the two — the strongest validation the executable system offers,
because it checks the whole distribution rather than one scalar reward.
It also reads the run of consecutive erroneous outputs off the recorded
outcome matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.perception.evaluation import evaluate
from repro.perception.parameters import PerceptionParameters
from repro.perception.statemap import ModuleCounts
from repro.simulation.batch.voter import OUTCOME_ERROR
from repro.utils.tables import render_table


@dataclass(frozen=True)
class OccupancyComparison:
    """Empirical vs analytic state distribution, with summary distance."""

    rows: list[tuple[ModuleCounts, float, float]]  # (state, empirical, analytic)
    total_variation_distance: float
    #: Seed of the run behind the empirical side (None = not given).
    seed: int | None = None

    def render(self, *, limit: int = 12) -> str:
        """Aligned table of the largest-probability states."""
        ranked = sorted(self.rows, key=lambda row: -max(row[1], row[2]))[:limit]
        table = render_table(
            ["(i, j, k)", "empirical", "analytic", "difference"],
            [
                [f"({s.healthy}, {s.compromised}, {s.unavailable})", e, a, e - a]
                for s, e, a in ranked
            ],
            float_format=".5f",
        )
        seed = "unseeded" if self.seed is None else str(self.seed)
        return (
            table
            + f"\ntotal variation distance: {self.total_variation_distance:.5f}"
            + f"\nseed: {seed}"
        )


def compare_with_analytic(
    census: np.ndarray,
    parameters: PerceptionParameters,
    *,
    seed: int | None = None,
) -> OccupancyComparison:
    """Compare a ``(N+1, N+1)`` census count array with the analytic π.

    ``census[h, c]`` counts observations with ``h`` healthy and ``c``
    compromised modules (the rest unavailable), as in
    :attr:`~repro.simulation.batch.runtime.BatchReport.census`.  Returns
    the union of states seen by either side and the total variation
    distance ``0.5 * Σ |empirical - analytic|``.
    """
    n = parameters.n_modules
    census = np.asarray(census)
    if census.shape != (n + 1, n + 1):
        raise SimulationError(
            f"census must have shape {(n + 1, n + 1)}, got {census.shape}"
        )
    if (census < 0).any():
        raise SimulationError("census counts must be non-negative")
    total = census.sum()
    if total == 0:
        raise SimulationError("census is empty; nothing to compare")
    empirical = {
        ModuleCounts(int(h), int(c), n - int(h) - int(c)): census[h, c] / total
        for h, c in zip(*np.nonzero(census))
    }
    analytic = evaluate(parameters).state_probabilities

    states = sorted(
        set(empirical) | set(analytic),
        key=lambda s: (-s.healthy, -s.compromised),
    )
    rows = [
        (state, float(empirical.get(state, 0.0)), analytic.get(state, 0.0))
        for state in states
    ]
    distance = 0.5 * sum(abs(e - a) for _, e, a in rows)
    return OccupancyComparison(
        rows=rows, total_variation_distance=distance, seed=seed
    )


def error_bursts(outcomes: np.ndarray) -> dict[int, int]:
    """Histogram ``{length: count}`` of maximal consecutive-error runs.

    ``outcomes`` is a ``(rounds, groups)`` outcome-code matrix (a
    recorded :attr:`BatchReport.outcomes`, sliced to the window of
    interest); runs are counted down each group's column and never span
    two groups.  The longest burst is ``max(histogram, default=0)``:
    safety-relevant beyond the error rate, since a vehicle survives one
    misperceived frame far more easily than twenty in a row.
    """
    rounds, groups = outcomes.shape
    padded = np.zeros((groups, rounds + 2), dtype=np.int8)
    padded[:, 1:-1] = (outcomes == OUTCOME_ERROR).T
    edges = np.diff(padded.ravel())
    lengths = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
    counts = np.bincount(lengths)
    return {int(length): int(counts[length]) for length in np.flatnonzero(counts)}
