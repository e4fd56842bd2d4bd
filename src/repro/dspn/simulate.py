"""Discrete-event Monte-Carlo simulation of DSPNs.

The simulator supports the full formalism — immediate transitions with
priorities and marking-dependent weights, exponential transitions with
single/infinite-server semantics and marking-dependent rates, and any
number of concurrently enabled deterministic transitions — under the
**enabling-memory** execution policy: a deterministic timer keeps its
remaining time across firings while its transition stays enabled (judged
in tangible markings) and resets when the transition is disabled or
fires.

It serves two purposes:

1. cross-validation of the analytic CTMC/MRGP results (the integration
   tests compare both within confidence intervals), and
2. evaluation of models outside the analytic class.

Estimates are time-averaged rewards per independent replication, with a
Student-t 95 % confidence interval across replications.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.dspn.rewards import RewardFunction
from repro.errors import SimulationError
from repro.obs import counter, span
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.transition import (
    DeterministicTransition,
    ExponentialTransition,
    ImmediateTransition,
)

# 97.5 % Student-t quantiles for small sample sizes; beyond the table the
# normal quantile 1.96 is accurate enough.
_T_QUANTILES = {
    2: 12.706, 3: 4.303, 4: 3.182, 5: 2.776, 6: 2.571, 7: 2.447, 8: 2.365,
    9: 2.306, 10: 2.262, 11: 2.228, 12: 2.201, 13: 2.179, 14: 2.160,
    15: 2.145, 16: 2.131, 17: 2.120, 18: 2.110, 19: 2.101, 20: 2.093,
    25: 2.064, 30: 2.045,
}


def _t_quantile(n: int) -> float:
    if n in _T_QUANTILES:
        return _T_QUANTILES[n]
    candidates = [k for k in _T_QUANTILES if k <= n]
    return _T_QUANTILES[max(candidates)] if candidates else 1.96


@dataclass(frozen=True)
class SimulationEstimate:
    """Monte-Carlo estimate of a time-averaged reward.

    ``mean`` ± ``half_width`` is a 95 % confidence interval across the
    independent replications.
    """

    mean: float
    std: float
    half_width: float
    replications: int
    horizon: float

    @property
    def interval(self) -> tuple[float, float]:
        return (self.mean - self.half_width, self.mean + self.half_width)

    def covers(self, value: float) -> bool:
        """Whether ``value`` falls inside the confidence interval."""
        low, high = self.interval
        return low <= value <= high


def replication_averages(
    net: PetriNet,
    *,
    reward: RewardFunction,
    horizon: float,
    warmup: float = 0.0,
    replications: int = 10,
    seed: int | None = None,
) -> list[float]:
    """Per-replication time-averages of ``reward`` — the raw samples.

    This is the sampling core of :func:`simulate`, exposed so callers
    that need the individual replication averages (e.g. the sequential
    agreement oracle in :mod:`repro.verify.oracles`, which accumulates
    batches drawn with consecutive seeds) can aggregate them their own
    way.  ``replications >= 1`` here; :func:`simulate` additionally
    requires two for a confidence interval.
    """
    if horizon <= 0:
        raise SimulationError(f"horizon must be > 0, got {horizon}")
    if warmup < 0:
        raise SimulationError(f"warmup must be >= 0, got {warmup}")
    if replications < 1:
        raise SimulationError(f"need >= 1 replication, got {replications}")
    rng = np.random.default_rng(seed)
    with span(
        "dspn.simulate", net=net.name, replications=replications
    ) as sp:
        before = counter("dspn.simulate.events").value
        averages = [
            _run_replication(net, reward, horizon, warmup, rng)
            for _ in range(replications)
        ]
        sp.set(events=counter("dspn.simulate.events").value - before)
    return averages


def simulate(
    net: PetriNet,
    *,
    reward: RewardFunction,
    horizon: float,
    warmup: float = 0.0,
    replications: int = 10,
    seed: int | None = None,
) -> SimulationEstimate:
    """Estimate the long-run time-average of ``reward`` by simulation.

    Parameters
    ----------
    net:
        The DSPN to simulate.
    reward:
        Function of the current tangible marking, accumulated over time.
    horizon:
        Simulated time per replication (after ``warmup``).
    warmup:
        Initial transient discarded from the statistics.
    replications:
        Number of independent replications (>= 2 for a confidence
        interval).
    seed:
        Seed of the underlying ``numpy`` generator for reproducibility.
    """
    if replications < 2:
        raise SimulationError(f"need >= 2 replications, got {replications}")

    averages = replication_averages(
        net,
        reward=reward,
        horizon=horizon,
        warmup=warmup,
        replications=replications,
        seed=seed,
    )
    mean = float(np.mean(averages))
    std = float(np.std(averages, ddof=1))
    half_width = _t_quantile(replications) * std / math.sqrt(replications)
    return SimulationEstimate(
        mean=mean,
        std=std,
        half_width=half_width,
        replications=replications,
        horizon=horizon,
    )


@dataclass(frozen=True)
class TransientProfile:
    """Monte-Carlo estimate of an instantaneous-reward trajectory.

    ``means[k]`` estimates ``E[reward(X_t)]`` at ``times[k]``;
    ``half_widths`` are per-point 95 % confidence half-widths across
    replications.
    """

    times: tuple[float, ...]
    means: tuple[float, ...]
    half_widths: tuple[float, ...]


def transient_profile(
    net: PetriNet,
    *,
    reward: RewardFunction,
    times: list[float],
    replications: int = 20,
    seed: int | None = None,
) -> TransientProfile:
    """Estimate the reward trajectory ``t -> E[reward(X_t)]`` by simulation.

    Unlike :func:`repro.dspn.transient.transient_rewards` this works for
    *any* DSPN — including the rejuvenating perception net, whose clock
    makes the analytic transient unavailable.  Each replication runs the
    enabling-memory event loop once up to ``max(times)`` and samples the
    reward at every requested instant.

    Caveat: when the reward distribution is dominated by rare
    low/high-reward states (e.g. the perception models, where most
    states reward ≈0.95 but a ~1 % tail rewards ≈0.7), small replication
    counts under-sample the tail and the per-point confidence intervals
    under-cover.  Use hundreds of replications for tail-sensitive
    rewards.
    """
    if not times:
        raise SimulationError("times must not be empty")
    if any(t < 0 for t in times):
        raise SimulationError("times must be >= 0")
    if replications < 2:
        raise SimulationError(f"need >= 2 replications, got {replications}")
    ordered = sorted(float(t) for t in times)
    rng = np.random.default_rng(seed)

    samples = np.empty((replications, len(ordered)))
    with span(
        "dspn.simulate.transient", net=net.name, replications=replications
    ):
        for replication in range(replications):
            samples[replication] = _sample_trajectory(net, reward, ordered, rng)

    means = samples.mean(axis=0)
    stds = samples.std(axis=0, ddof=1)
    half = _t_quantile(replications) * stds / math.sqrt(replications)
    return TransientProfile(
        times=tuple(ordered),
        means=tuple(float(m) for m in means),
        half_widths=tuple(float(h) for h in half),
    )


def _sample_trajectory(
    net: PetriNet,
    reward: RewardFunction,
    times: list[float],
    rng: np.random.Generator,
) -> np.ndarray:
    """One replication: the reward at each requested instant."""
    values = np.empty(len(times))
    cursor = 0
    firings = 0
    for marking, _, stop in _sojourns(net, rng):
        # every requested instant before the next firing sees this marking
        while cursor < len(times) and times[cursor] < stop:
            values[cursor] = float(reward(marking))
            cursor += 1
        if cursor == len(times):
            break
        firings += 1
    counter("dspn.simulate.events").inc(firings)
    return values


def _sojourns(
    net: PetriNet, rng: np.random.Generator
) -> Iterator[tuple[Marking, float, float]]:
    """The enabling-memory event loop: ``(marking, start, stop)`` per sojourn.

    ``marking`` is tangible and holds over ``[start, stop)``; ``stop``
    is infinite in a dead marking, which ends the run.  The firing that
    ends a sojourn is chosen only when the next sojourn is asked for, so
    a consumer that stops early draws no random numbers for it.
    """
    deterministics = net.deterministic_transitions()
    exponentials = net.exponential_transitions()

    marking = _resolve_immediates(net, net.initial_marking(), rng)
    clock = 0.0
    # remaining time of each enabled deterministic transition
    remaining: dict[str, float] = {
        t.name: t.delay for t in deterministics if net.is_enabled(t, marking)
    }

    while True:
        enabled = [
            (t, net.enabling_degree(t, marking)) for t in exponentials
        ]
        enabled = [(t, d) for t, d in enabled if d > 0]
        total_rate = sum(t.rate_in(marking, d) for t, d in enabled)
        next_det = min(remaining.items(), key=lambda item: item[1], default=None)

        exp_dt = rng.exponential(1.0 / total_rate) if total_rate > 0 else math.inf
        det_dt = next_det[1] if next_det is not None else math.inf
        dt = min(exp_dt, det_dt)
        fire_time = clock + dt
        yield marking, clock, fire_time
        if math.isinf(dt):
            return

        clock = fire_time
        if det_dt <= exp_dt:
            transition = next(t for t in deterministics if t.name == next_det[0])
            del remaining[transition.name]
        else:
            rates = np.array([t.rate_in(marking, d) for t, d in enabled])
            transition = enabled[
                rng.choice(len(enabled), p=rates / rates.sum())
            ][0]
        marking = _resolve_immediates(net, net.fire(transition, marking), rng)

        # update deterministic timers under enabling memory
        new_remaining: dict[str, float] = {}
        for det in deterministics:
            if not net.is_enabled(det, marking):
                continue
            previously = remaining.get(det.name)
            if previously is None or det.name == transition.name:
                new_remaining[det.name] = det.delay
            else:
                new_remaining[det.name] = previously - dt
        remaining = new_remaining


def _resolve_immediates(
    net: PetriNet, marking: Marking, rng: np.random.Generator
) -> Marking:
    """Fire immediate transitions (weights, priorities) until tangible."""
    immediates = net.immediate_transitions()
    for _ in range(100_000):
        enabled = [t for t in immediates if net.is_enabled(t, marking)]
        if not enabled:
            return marking
        top = max(t.priority for t in enabled)
        competing = [t for t in enabled if t.priority == top]
        weights = np.array([t.weight_in(marking) for t in competing])
        chosen = competing[rng.choice(len(competing), p=weights / weights.sum())]
        marking = net.fire(chosen, marking)
    raise SimulationError(
        "immediate transitions fired 100000 times without reaching a "
        "tangible marking; the net has a vanishing loop"
    )


def _run_replication(
    net: PetriNet,
    reward: RewardFunction,
    horizon: float,
    warmup: float,
    rng: np.random.Generator,
) -> float:
    end = warmup + horizon
    accumulated = 0.0
    firings = 0
    for marking, start, stop in _sojourns(net, rng):
        accumulated += _reward_slice(reward, marking, start, min(stop, end), warmup)
        if stop >= end:
            break
        firings += 1
    counter("dspn.simulate.events").inc(firings)
    return accumulated / horizon


def _reward_slice(
    reward: RewardFunction,
    marking: Marking,
    start: float,
    stop: float,
    warmup: float,
) -> float:
    """Reward accumulated in [start, stop) clipped to the measured window."""
    effective_start = max(start, warmup)
    if stop <= effective_start:
        return 0.0
    return float(reward(marking)) * (stop - effective_start)
