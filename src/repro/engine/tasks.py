"""Picklable point functions for the experiment sweep plans.

Worker processes receive a module-level function plus plain-data
arguments (frozen parameter dataclasses, enums, strings) and rebuild
everything heavyweight — nets, reliability functions — on their side.
Results are scalars or small tuples so nothing large crosses the
process boundary; the steady-state solutions themselves stay in each
worker's solver cache (and in the shared disk tier when enabled).
"""

from __future__ import annotations

from repro.dspn import solve_steady_state
from repro.engine.cache import active_cache
from repro.engine.hashing import reliability_fingerprint, reward_cache_key
from repro.nversion.conventions import OutputConvention
from repro.obs.tracer import span
from repro.nversion.reliability import ReliabilityFunction
from repro.perception.evaluation import default_reliability_function, evaluate
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_rejuvenation_net
from repro.perception.statemap import module_counts


def _build_net(parameters: PerceptionParameters, options: dict | None = None):
    options = dict(options or {})
    if parameters.rejuvenation:
        return build_rejuvenation_net(parameters, **options)
    return build_no_rejuvenation_net(parameters, **options)


def _cached_reward(
    net, reliability, *, max_states: int = 200_000, method: str = "auto"
) -> tuple["str | None", "float | None"]:
    """Look up the derived-value tier: (cache key, hit) — both optional.

    Only reliability functions with a canonical fingerprint (the frozen
    dataclasses of :mod:`repro.nversion.reliability`) are memoized;
    ad-hoc callables always recompute.
    """
    cache = active_cache()
    if cache is None:
        return None, None
    fingerprint = reliability_fingerprint(reliability)
    if fingerprint is None:
        return None, None
    key = reward_cache_key(
        net, reliability_fp=fingerprint, max_states=max_states, method=method
    )
    hit = cache.get(key)
    return key, (None if hit is None else float(hit))


def _store_reward(key: "str | None", value: float) -> None:
    if key is not None:
        cache = active_cache()
        if cache is not None:
            cache.put(key, float(value))


def expected_reliability(
    parameters: PerceptionParameters,
    convention: OutputConvention = OutputConvention.SAFE_SKIP,
    reliability: ReliabilityFunction | None = None,
    max_states: int = 200_000,
    method: str = "auto",
) -> float:
    """E[R_sys] of one configuration (the Eq. 1 pipeline).

    ``method`` selects the solver route (see
    :func:`repro.dspn.solve_steady_state`) and is part of the reward
    cache key, so a value forced through one route is never served for
    a request naming another.
    """
    resolved = (
        reliability
        if reliability is not None
        else default_reliability_function(parameters, convention=convention)
    )
    with span(
        "engine.expected_reliability",
        n_modules=parameters.n_modules,
        rejuvenation=parameters.rejuvenation,
    ) as sp:
        key, hit = _cached_reward(
            _build_net(parameters), resolved, max_states=max_states, method=method
        )
        if hit is not None:
            # a measure, not an attr: per-process cache state differs
            # between execution modes
            sp.set(reward_cache="hit")
            return hit
        sp.set(reward_cache="off" if key is None else "miss")
        value = evaluate(
            parameters,
            reliability=resolved,
            max_states=max_states,
            method=method,
        ).expected_reliability
        _store_reward(key, value)
        return value


def variant_reliability(
    parameters: PerceptionParameters,
    reliability: ReliabilityFunction,
    build_options: dict | None = None,
) -> float:
    """E[R] of a model *variant* built with non-default net options.

    ``build_options`` may contain ``server`` (a :class:`ServerSemantics`),
    and — for rejuvenating nets — ``selection``, ``clock`` and
    ``lost_ticks``; it selects the builder by the ``rejuvenation`` flag
    of ``parameters``.  Used by the ablation experiments, whose whole
    point is deviating from the calibrated defaults.
    """
    net = _build_net(parameters, build_options)
    key, hit = _cached_reward(net, reliability)
    if hit is not None:
        return hit
    solution = solve_steady_state(net)

    memo: dict = {}

    def reward(marking):
        counts = module_counts(marking)
        value = memo.get(counts)
        if value is None:
            value = memo[counts] = reliability(
                counts.healthy, counts.compromised, counts.unavailable
            )
        return value

    value = solution.expected_reward(reward)
    _store_reward(key, value)
    return value
