"""The Eq. 1 evaluation pipeline: E[R_sys] = Σ π_{i,j,k} · R_{i,j,k}.

An :class:`Evaluation` request solves the configuration's DSPN (built
by :func:`build_net`) for its steady-state marking distribution,
aggregates markings into the paper's (i, j, k) module states, and
weighs each state's reliability function value by its probability.

By default the reliability function is chosen to match the paper:
verbatim Appendix A for the (N=4, f=1, no-rejuvenation) instance,
verbatim Appendix B for the (N=6, f=1, r=1, rejuvenation) instance, and
the generalized enumeration for every other configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from repro.dspn import SteadyStateResult, solve_steady_state
from repro.engine.cache import active_cache
from repro.engine.hashing import (
    NetDigests,
    net_digests,
    reliability_fingerprint,
    reward_cache_key,
)
from repro.nversion.conventions import OutputConvention
from repro.nversion.reliability import (
    GeneralizedReliability,
    PaperFourVersionReliability,
    PaperSixVersionReliability,
    ReliabilityFunction,
)
from repro.obs import span
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_rejuvenation_net
from repro.perception.statemap import ModuleCounts, state_counts
from repro.petri.net import PetriNet


def default_reliability_function(
    parameters: PerceptionParameters,
    *,
    convention: OutputConvention = OutputConvention.SAFE_SKIP,
) -> ReliabilityFunction:
    """The paper-faithful reliability function for ``parameters``.

    Returns the verbatim appendix functions for the paper's two
    instances (safe-skip convention only — the appendix formulas *are*
    the safe-skip convention); any other configuration, or a request for
    the strict-correct convention, falls back to
    :class:`GeneralizedReliability`.
    """
    if convention is OutputConvention.SAFE_SKIP:
        if (
            parameters.n_modules == 4
            and parameters.f == 1
            and not parameters.rejuvenation
        ):
            return PaperFourVersionReliability(
                p=parameters.p, p_prime=parameters.p_prime, alpha=parameters.alpha
            )
        if (
            parameters.n_modules == 6
            and parameters.f == 1
            and parameters.r == 1
            and parameters.rejuvenation
        ):
            return PaperSixVersionReliability(
                p=parameters.p, p_prime=parameters.p_prime, alpha=parameters.alpha
            )
    return GeneralizedReliability(
        n_modules=parameters.n_modules,
        threshold=parameters.voting_scheme.threshold,
        p=parameters.p,
        p_prime=parameters.p_prime,
        alpha=parameters.alpha,
        convention=convention,
    )


@dataclass
class EvaluationResult:
    """Outcome of one Eq. 1 evaluation.

    Attributes
    ----------
    expected_reliability:
        The scalar E[R_sys].
    solution:
        The underlying DSPN steady-state solution (per-marking detail).
    states:
        The distinct (i, j, k) module states, an ``(m, 3)`` int64 array
        in order of first appearance among the markings.
    state_index:
        For each marking, the row of its state in :attr:`states`.
    values:
        The reliability function value of each row of :attr:`states`.

    :attr:`state_probabilities` and :attr:`state_reliability` are the
    same data as dicts keyed by :class:`ModuleCounts`, built when read.
    """

    expected_reliability: float
    solution: SteadyStateResult
    states: np.ndarray
    state_index: np.ndarray
    values: np.ndarray

    @cached_property
    def state_probabilities(self) -> dict[ModuleCounts, float]:
        """Steady-state probability aggregated per (i, j, k) module state,
        each sum taken in marking order."""
        sums = np.bincount(
            self.state_index, weights=self.solution.pi, minlength=len(self.states)
        )
        return dict(zip(self._keys, sums.tolist()))

    @cached_property
    def state_reliability(self) -> dict[ModuleCounts, float]:
        """The reliability function value per module state."""
        return dict(zip(self._keys, self.values.tolist()))

    @property
    def _keys(self) -> list[ModuleCounts]:
        return [ModuleCounts(*state) for state in self.states.tolist()]

    def top_states(self, limit: int = 10) -> list[tuple[ModuleCounts, float, float]]:
        """(state, probability, reliability) sorted by probability."""
        ranked = sorted(self.state_probabilities.items(), key=lambda kv: -kv[1])
        return [
            (state, probability, self.state_reliability[state])
            for state, probability in ranked[:limit]
        ]


def build_net(parameters: PerceptionParameters, **options: Any) -> PetriNet:
    """The Fig. 2 net for ``parameters``: the one builder dispatch.

    ``parameters.rejuvenation`` selects Fig. 2(b)+(c) or Fig. 2(a);
    ``options`` go to that builder (``server`` for both, and
    ``selection``, ``clock`` and ``lost_ticks`` for the rejuvenating net).
    """
    if parameters.rejuvenation:
        return build_rejuvenation_net(parameters, **options)
    return build_no_rejuvenation_net(parameters, **options)


#: The transition whose edges carry each time parameter: a mean time
#: divides the rate of an exponential transition, the rejuvenation
#: interval is the delay of the deterministic clock.
TIME_TRANSITIONS = {
    "mttc": "Tc",
    "mttf": "Tf",
    "mttr": "Tr",
    "rejuvenation_time_per_module": "Trj",
    "rejuvenation_interval": "Trc",
}


def distinct_states(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct, index)`` of an ``(n, 3)`` (i, j, k) array.

    ``distinct`` holds each state once, in order of first appearance;
    ``states[m]`` is ``distinct[index[m]]``.
    """
    width = int(states.max()) + 1 if len(states) else 1
    keys = (states[:, 0] * width + states[:, 1]) * width + states[:, 2]
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return states[first[order]], rank[index.reshape(-1)]


def state_values(distinct: np.ndarray, reliability: ReliabilityFunction) -> np.ndarray:
    """``R(i, j, k)`` of each row of ``distinct``: one
    :meth:`GeneralizedReliability.values` gather, or one call per row
    of any other function."""
    if isinstance(reliability, GeneralizedReliability):
        return reliability.values(distinct)
    return np.array(
        [float(reliability(*state)) for state in distinct.tolist()], dtype=float
    )


def reliability_rewards(
    states: np.ndarray, reliability: ReliabilityFunction
) -> np.ndarray:
    """Eq. 1's reward vector ``R(i, j, k)`` over markings with (i, j, k)
    ``states`` (an :func:`~repro.perception.statemap.state_counts` array);
    each distinct state is evaluated once."""
    distinct, index = distinct_states(states)
    return state_values(distinct, reliability)[index]


@dataclass(frozen=True)
class Evaluation:
    """One Eq. 1 request: a configuration, its reward and its solver options.

    :func:`evaluate`, the engine's sweep tasks, the HTTP workers and
    :class:`PerceptionSystem` are calls onto this request.  It builds
    its net once (:attr:`net`, via :func:`build_net` with
    ``build_options``), probes it once (:attr:`digests`, which the
    solver's cache and structure keys reuse) and derives one :attr:`key`
    from :func:`repro.engine.hashing.reward_cache_key`: the engine's
    reward-tier entry, the server's coalescing and result-cache slot,
    and a served response's ``cache_key``.  ``reliability=None``
    resolves to :func:`default_reliability_function`; ``method``,
    ``max_states`` and ``verify`` go to
    :func:`repro.dspn.solve_steady_state`, and a verified request never
    reads the reward tier.  ``build_options`` may be given as a dict.
    """

    parameters: PerceptionParameters
    reliability: ReliabilityFunction | None = None
    method: str = "auto"
    max_states: int = 200_000
    verify: bool | float | None = None
    build_options: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.reliability is None:
            object.__setattr__(
                self, "reliability", default_reliability_function(self.parameters)
            )
        object.__setattr__(
            self, "build_options", tuple(sorted(dict(self.build_options).items()))
        )

    @cached_property
    def net(self) -> PetriNet:
        """The DSPN this request solves (built on first use)."""
        return build_net(self.parameters, **dict(self.build_options))

    @cached_property
    def digests(self) -> NetDigests:
        """The fingerprint and structure digest of :attr:`net`, from one
        probe pass shared by the reward key and the solver's keys."""
        return net_digests(self.net)

    @cached_property
    def fingerprint(self) -> str:
        """The engine's canonical fingerprint of :attr:`net`."""
        return self.digests.fingerprint

    @cached_property
    def key(self) -> str | None:
        """The request's cache key; ``None`` for an ad-hoc reliability
        callable, which has no canonical identity to key on."""
        reliability_fp = reliability_fingerprint(self.reliability)
        if reliability_fp is None:
            return None
        return reward_cache_key(
            self.fingerprint,
            reliability_fp=reliability_fp,
            max_states=self.max_states,
            method=self.method,
        )

    def solve(self) -> SteadyStateResult:
        """The steady-state solution of :attr:`net` (solver-cached)."""
        return solve_steady_state(
            self.net,
            max_states=self.max_states,
            method=self.method,
            verify=self.verify,
            digests=self.digests,
        )

    @cached_property
    def result(self) -> EvaluationResult:
        """The full Eq. 1 evaluation (computed on first use)."""
        solution = self.solve()
        with span("dspn.rewards", markings=len(solution.pi)):
            states, index = distinct_states(state_counts(solution.markings))
            values = state_values(states, self.reliability)
            # Same contraction as SteadyStateResult.expected_reward (Eq. 1).
            expected = float(solution.pi @ values[index])
        return EvaluationResult(
            expected_reliability=expected,
            solution=solution,
            states=states,
            state_index=index,
            values=values,
        )

    def expected_reliability(self) -> float:
        """E[R_sys], read from and stored to the engine's reward tier."""
        with span(
            "engine.expected_reliability",
            n_modules=self.parameters.n_modules,
            rejuvenation=self.parameters.rejuvenation,
        ) as sp:
            cache = None if self.verify else active_cache()
            key = None if cache is None else self.key
            if key is not None:
                hit = cache.get(key, "reward")
                if hit is not None:
                    # a measure, not an attr: per-process cache state
                    # differs between execution modes
                    sp.set(reward_cache="hit")
                    return float(hit)
            sp.set(reward_cache="off" if key is None else "miss")
            value = self.result.expected_reliability
            if key is not None:
                cache.put(key, value)
            return value


def evaluate(
    parameters: PerceptionParameters,
    *,
    reliability: ReliabilityFunction | None = None,
    convention: OutputConvention = OutputConvention.SAFE_SKIP,
    max_states: int = 200_000,
    method: str = "auto",
) -> EvaluationResult:
    """Compute E[R_sys] for ``parameters`` (Eq. 1): an :class:`Evaluation`.

    ``convention`` selects the default reliability function and is
    ignored if ``reliability`` is given.
    """
    if reliability is None:
        reliability = default_reliability_function(parameters, convention=convention)
    return Evaluation(
        parameters, reliability, method=method, max_states=max_states
    ).result
