"""Continuous-time Markov chains."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.errors import SolverError
from repro.markov.linear import check_generator, normalize_distribution, solve_stationary
from repro.markov.uniformization import transient_distribution
from repro.obs import span


class CTMC:
    """A finite continuous-time Markov chain.

    Parameters
    ----------
    generator:
        The infinitesimal generator ``Q`` (rows sum to zero, non-negative
        off-diagonal entries).
    states:
        Optional state labels (any hashable objects); defaults to indices.

    The class exposes stationary and transient analysis plus reward
    evaluation; it is the workhorse behind the paper's
    no-rejuvenation model (Fig. 2a) and the subordinated processes of the
    MRGP solver.
    """

    def __init__(self, generator: np.ndarray, states: Sequence[Any] | None = None) -> None:
        self.generator = check_generator(np.array(generator, dtype=float), what="CTMC")
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
        n = len(states)
        generator = np.zeros((n, n))
        for (source, target), rate in rates.items():
            if source == target:
                raise SolverError("self-loop rates are meaningless in a CTMC")
            if rate < 0:
                raise SolverError(f"negative rate {rate} for {source!r}->{target!r}")
            generator[index[source], index[target]] += rate
        np.fill_diagonal(generator, 0.0)
        np.fill_diagonal(generator, -generator.sum(axis=1))
        return cls(generator, states)

    @property
    def n_states(self) -> int:
        return self.generator.shape[0]

    def index_of(self, state: Any) -> int:
        """Position of ``state`` in the generator."""
        return self._index[state]

    # ------------------------------------------------------------------
    # stationary analysis
    # ------------------------------------------------------------------
    def stationary_distribution(self) -> np.ndarray:
        """The stationary distribution ``pi`` with ``pi Q = 0``.

        Cached after the first call.  Raises :class:`SolverError` for
        chains whose stationary distribution is not unique.
        """
        if self._stationary is None:
            with span("markov.ctmc", states=self.n_states):
                self._stationary = solve_stationary(
                    self.generator, what="CTMC stationary"
                )
        return self._stationary

    def expected_reward(self, rewards: Sequence[float] | np.ndarray) -> float:
        """Stationary expected reward ``sum_i pi_i r_i`` (Eq. 1 of the paper)."""
        rewards = np.asarray(rewards, dtype=float)
        if rewards.shape != (self.n_states,):
            raise SolverError(
                f"reward vector has shape {rewards.shape}, expected ({self.n_states},)"
            )
        return float(self.stationary_distribution() @ rewards)

    # ------------------------------------------------------------------
    # transient analysis
    # ------------------------------------------------------------------
    def transient(self, initial: Sequence[float] | np.ndarray, time: float) -> np.ndarray:
        """State distribution at ``time`` starting from ``initial``."""
        initial = normalize_distribution(
            np.asarray(initial, dtype=float), what="initial distribution"
        )
        return transient_distribution(self.generator, initial, time)

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
        """Expected reward accumulated over ``[0, time]``.

        Computes ``initial @ (∫_0^t e^{Qs} ds) @ r`` with the integral
        from :func:`~repro.markov.uniformization.expm_and_integral`.  For a 0/1 reward this is the
        expected total time spent in the rewarded states (interval
        availability times ``t``).
        """
        from repro.markov.uniformization import expm_and_integral

        rewards = np.asarray(rewards, dtype=float)
        if rewards.shape != (self.n_states,):
            raise SolverError(
                f"reward vector has shape {rewards.shape}, expected "
                f"({self.n_states},)"
            )
        initial = normalize_distribution(
            np.asarray(initial, dtype=float), what="initial distribution"
        )
        _, integral = expm_and_integral(self.generator, time)
        return float(initial @ integral @ rewards)

    # ------------------------------------------------------------------
    # absorption analysis
    # ------------------------------------------------------------------
    def absorbing_states(self) -> list[Any]:
        """States with zero exit rate."""
        return [
            self.states[i]
            for i in range(self.n_states)
            if np.all(np.abs(self.generator[i]) < 1e-15)
        ]

    def mean_time_to_absorption(
        self, initial: Sequence[float] | np.ndarray
    ) -> float:
        """Expected time until any absorbing state is reached.

        Raises
        ------
        SolverError
            If the chain has no absorbing state, or absorption is not
            certain from ``initial``.
        """
        absorbing = {self._index[s] for s in self.absorbing_states()}
        if not absorbing:
            raise SolverError("chain has no absorbing state")
        transient_states = [i for i in range(self.n_states) if i not in absorbing]
        if not transient_states:
            return 0.0
        sub = self.generator[np.ix_(transient_states, transient_states)]
        initial = np.asarray(initial, dtype=float)
        start = initial[transient_states]
        try:
            # E[T] = -start @ sub^{-1} @ 1
            times = np.linalg.solve(sub.T, -start)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "absorption is not certain (transient sub-generator singular)"
            ) from exc
        return float(times.sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CTMC(n_states={self.n_states})"
