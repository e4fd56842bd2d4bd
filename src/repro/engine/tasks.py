"""Picklable point functions for the experiment sweep plans.

Worker processes receive a module-level function plus plain-data
arguments (frozen parameter dataclasses, enums, strings) and rebuild
everything heavyweight — nets, reliability functions — on their side.
Results are scalars or small tuples so nothing large crosses the
process boundary; the steady-state solutions themselves stay in each
worker's solver cache (and in the shared disk tier when enabled).
"""

from __future__ import annotations

from repro.nversion.conventions import OutputConvention
from repro.nversion.reliability import ReliabilityFunction
from repro.perception.evaluation import Evaluation, default_reliability_function
from repro.perception.parameters import PerceptionParameters


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
    if reliability is None:
        reliability = default_reliability_function(parameters, convention=convention)
    return Evaluation(
        parameters, reliability, method=method, max_states=max_states
    ).expected_reliability()


def variant_reliability(
    parameters: PerceptionParameters,
    reliability: ReliabilityFunction,
    build_options: dict | None = None,
) -> float:
    """E[R] of a model *variant* built with non-default net options.

    ``build_options`` may contain ``server`` (a :class:`ServerSemantics`),
    and — for rejuvenating nets — ``selection``, ``clock`` and
    ``lost_ticks`` (see :func:`repro.perception.evaluation.build_net`).
    Used by the ablation experiments, whose whole point is deviating
    from the calibrated defaults.
    """
    return Evaluation(
        parameters, reliability, build_options=build_options or ()
    ).expected_reliability()
