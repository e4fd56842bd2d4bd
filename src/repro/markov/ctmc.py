"""Continuous-time Markov chains, held as a CSR generator."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.errors import SolverError
from repro.markov.first_passage import mean_time_to_hit
from repro.markov.linear import normalize_distribution
from repro.markov.sparse import (
    check_sparse_generator,
    stationary_distribution_sparse,
    transient_distribution_sparse,
)
from repro.markov.uniformization import SEGMENT_TERMS, uniformized_walk

#: Total-variation distance to π below which a distribution counts as mixed.
_MIXED = 1e-10


class CTMC:
    """A finite continuous-time Markov chain.

    Parameters
    ----------
    generator:
        The infinitesimal generator ``Q`` (rows sum to zero, non-negative
        off-diagonal entries), dense or scipy.sparse; it is stored as a
        ``scipy.sparse.csr_array`` and never densified.
    states:
        Optional state labels (any hashable objects); defaults to indices.

    Every analysis runs on the CSR routes of :mod:`repro.markov.sparse`.
    """

    def __init__(self, generator: Any, states: Sequence[Any] | None = None) -> None:
        matrix = sp.csr_array(generator, dtype=float, copy=True)
        self.generator = check_sparse_generator(matrix, what="CTMC")
        n = self.generator.shape[0]
        if states is None:
            states = list(range(n))
        if len(states) != n:
            raise SolverError(f"got {len(states)} state labels for {n} states")
        self.states = list(states)
        self._index = {state: i for i, state in enumerate(self.states)}
        self._stationary: np.ndarray | None = None

    @classmethod
    def from_rates(
        cls,
        states: Sequence[Any],
        rates: dict[tuple[Any, Any], float],
    ) -> "CTMC":
        """Build a CTMC from a sparse ``{(source, target): rate}`` mapping."""
        index = {state: i for i, state in enumerate(states)}
        generator = sp.dok_array((len(states), len(states)))
        for (source, target), rate in rates.items():
            if source == target:
                raise SolverError("self-loop rates are meaningless in a CTMC")
            if rate < 0:
                raise SolverError(f"negative rate {rate} for {source!r}->{target!r}")
            generator[index[source], index[target]] += rate
            generator[index[source], index[source]] -= rate
        return cls(generator, states)

    @property
    def n_states(self) -> int:
        return self.generator.shape[0]

    def index_of(self, state: Any) -> int:
        """Position of ``state`` in the generator."""
        return self._index[state]

    def _vector(self, values: Sequence[float] | np.ndarray, *, what: str) -> np.ndarray:
        vector = np.asarray(values, dtype=float)
        if vector.shape != (self.n_states,):
            raise SolverError(
                f"{what} has shape {vector.shape}, expected ({self.n_states},)"
            )
        return vector

    # ------------------------------------------------------------------
    # stationary analysis
    # ------------------------------------------------------------------
    def stationary_distribution(self) -> np.ndarray:
        """The stationary distribution ``pi`` with ``pi Q = 0``.

        Cached after the first call.  Raises :class:`SolverError` for
        chains whose stationary distribution is not unique.
        """
        if self._stationary is None:
            self._stationary, _ = stationary_distribution_sparse(
                self.generator, what="CTMC stationary"
            )
        return self._stationary

    def expected_reward(self, rewards: Sequence[float] | np.ndarray) -> float:
        """Stationary expected reward ``sum_i pi_i r_i`` (Eq. 1 of the paper)."""
        rewards = self._vector(rewards, what="reward vector")
        return float(self.stationary_distribution() @ rewards)

    # ------------------------------------------------------------------
    # transient analysis
    # ------------------------------------------------------------------
    def transient(self, initial: Sequence[float] | np.ndarray, time: float) -> np.ndarray:
        """State distribution at ``time`` starting from ``initial``."""
        initial = normalize_distribution(
            np.asarray(initial, dtype=float), what="initial distribution"
        )
        return transient_distribution_sparse(
            self.generator, initial, time, what="CTMC transient"
        )

    def transient_reward(
        self,
        initial: Sequence[float] | np.ndarray,
        rewards: Sequence[float] | np.ndarray,
        time: float,
    ) -> float:
        """Expected instantaneous reward at ``time``."""
        distribution = self.transient(initial, time)
        return float(distribution @ np.asarray(rewards, dtype=float))

    def accumulated_reward(
        self,
        initial: Sequence[float] | np.ndarray,
        rewards: Sequence[float] | np.ndarray,
        time: float,
    ) -> float:
        """Expected reward ``initial @ (∫_0^t e^{Qs} ds) @ r`` over ``[0, time]``.

        Uniformizes the augmented matrix ``[[Q, r], [0, 0]]``, whose
        exponential carries the integral in its last column, with CSR
        products on :func:`~repro.markov.uniformization.uniformized_walk`.
        Once the distribution is within :data:`_MIXED` of π in total
        variation (a distance no later time exceeds) the rest accrues at
        the rate ``π r``.
        """
        rewards = self._vector(rewards, what="reward vector")
        initial = normalize_distribution(
            self._vector(initial, what="initial distribution"),
            what="initial distribution",
        )
        if not 0 <= time < np.inf:
            raise SolverError(f"time must be finite and >= 0, got {time}")
        n = self.n_states
        rate = max(float(-self.generator.diagonal().min()), 1e-300)
        augmented = sp.block_array(
            [[self.generator, rewards.reshape(n, 1)], [None, np.zeros((1, 1))]],
            format="csr",
        )
        step = sp.csr_array((sp.eye_array(n + 1, format="csr") + augmented / rate).T)
        stationary = None
        if rate * time > SEGMENT_TERMS:
            try:
                stationary = self.stationary_distribution()
            except SolverError:  # no unique π: walk the whole horizon
                pass
        state, elapsed = uniformized_walk(
            lambda vector: step @ vector,
            np.append(initial, 0.0),
            rate=rate,
            time=time,
            stop=None
            if stationary is None
            else lambda state: np.abs(state[:n] - stationary).sum() <= _MIXED,
        )
        if elapsed < time:  # mixed: the rest accrues at the stationary rate
            return float(state[n] + (time - elapsed) * (stationary @ rewards))
        return float(state[n])

    # ------------------------------------------------------------------
    # absorption analysis
    # ------------------------------------------------------------------
    def absorbing_states(self) -> list[Any]:
        """States with zero exit rate."""
        largest = abs(self.generator).max(axis=1).toarray()
        return [self.states[i] for i in np.flatnonzero(largest < 1e-15)]

    def mean_time_to_absorption(
        self, initial: Sequence[float] | np.ndarray
    ) -> float:
        """Expected time until any absorbing state is reached.

        Computed by :func:`~repro.markov.first_passage.mean_time_to_hit`
        with the absorbing states as the target set.

        Raises
        ------
        SolverError
            If the chain has no absorbing state, or absorption is not
            certain from some non-absorbing state.
        """
        absorbing = self.absorbing_states()
        if not absorbing:
            raise SolverError("chain has no absorbing state")
        if len(absorbing) == self.n_states:
            return 0.0
        return mean_time_to_hit(self, absorbing, initial)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CTMC(n_states={self.n_states})"
