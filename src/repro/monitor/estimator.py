"""Online Bayesian filtering of each module's hidden health state.

Every operational module is either ``HEALTHY`` or ``COMPROMISED``; the
voter cannot see which, but the two states have sharply different
deviation behaviour (§III: inaccuracy p versus p' > p).  This module
maintains, per module of every replica group, the posterior
probability of being compromised given the observable vote history — a
two-state hidden-Markov filter over ``(groups, n_modules)`` arrays
whose ingredients are exactly the quantities the analytic model
already uses:

* **prior dynamics** — the compromise rate λc and failure rate λ of
  :class:`~repro.perception.parameters.PerceptionParameters`, i.e. the
  same rates the DSPN transitions Tc/Tf put into the CSR generator of
  :func:`repro.dspn.sparse_builder.sparse_generator`.  Between
  observations the belief drifts towards "compromised" at the hazard of
  Tc, discounted by Tf's exit to the observable FAILED state;
* **likelihood** — the per-round deviation flags produced by
  :mod:`repro.monitor.signals`.  A deviation is ~``p'`` likely for a
  compromised module and ~``p_dev_healthy`` for a healthy one, so each
  round multiplies the posterior odds by the corresponding ratio
  (sequential Bernoulli updating; over a window this composes to the
  binomial likelihood of the window's deviation count).

Unavailability (FAILED/REJUVENATING) is directly observable — the
module stops producing outputs — and both exits return the module
HEALTHY (transitions Tr and Trj), so the filter resets the belief to
zero when a module reappears.  No ground truth is ever consulted: the
filter sees exactly what a deployed monitor would see.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SimulationError
from repro.perception.parameters import PerceptionParameters


def healthy_deviation_probability(parameters: PerceptionParameters) -> float:
    """Marginal per-round deviation probability of a healthy module.

    Under the normalized dependent model a healthy-error event occurs
    with probability p; the erring set then contains the leader (chosen
    uniformly among the h healthy modules) plus each other healthy
    module with probability α.  With h ≈ N the per-module marginal is

        p · (1/N + (1 - 1/N) · α).

    This ignores second-order effects (plurality flips during
    common-mode bursts, fewer healthy modules when some are down); the
    filter only needs the healthy/compromised likelihoods to be well
    separated, not exact.
    """
    n = parameters.n_modules
    return parameters.p * (1.0 / n + (1.0 - 1.0 / n) * parameters.alpha)


def deviation_likelihoods(parameters: PerceptionParameters) -> tuple[float, float]:
    """The filter's (healthy, compromised) per-round deviation probabilities.

    Raises :class:`SimulationError` when a compromised module would not
    deviate more often than a healthy one: the deviation signal then
    carries no information.
    """
    healthy = healthy_deviation_probability(parameters)
    compromised = parameters.p_prime
    if compromised <= healthy:
        raise SimulationError(
            "compromised modules must deviate more often than healthy "
            f"ones ({compromised} <= {healthy}); "
            "the deviation signal carries no information otherwise"
        )
    return healthy, compromised


def per_module_compromise_rate(parameters: PerceptionParameters) -> float:
    """The hazard of one module becoming compromised.

    The pool shares one compromise channel of rate λc (the calibrated
    single-server reading) that picks a victim uniformly, so each module
    sees ≈ λc/N.  A per-module λc clock is the infinite-server net
    (``build_rejuvenation_net(..., server=ServerSemantics.INFINITE)``),
    answered exactly on the analytic side.
    """
    return parameters.lambda_c / parameters.n_modules


class HealthEstimator:
    """Two-state Bayesian filter over ``(groups, n_modules)`` modules.

    ``posterior`` holds P(compromised) per module, NaN while the module
    is unavailable; every available belief is propagated to ``clock``.
    ``last_reset`` is the time of each module's last observable return
    to HEALTHY (deployment, repair or rejuvenation) — the policies'
    staleness tie-break.
    """

    def __init__(
        self,
        parameters: PerceptionParameters,
        groups: int = 1,
    ) -> None:
        self.p_deviate_healthy, self.p_deviate_compromised = deviation_likelihoods(
            parameters
        )
        self.compromise_rate = per_module_compromise_rate(parameters)
        self.failure_rate = parameters.lambda_f
        shape = (groups, parameters.n_modules)
        self.posterior = np.zeros(shape)
        self.available = np.ones(shape, dtype=bool)
        self.last_reset = np.zeros(shape)
        self.clock = 0.0

    def predict(self, now: float) -> None:
        """Propagate every available belief from ``clock`` to ``now``.

        Over a step dt the healthy mass leaks to compromised at the Tc
        hazard, while compromised mass exits to the *observable* FAILED
        state at the Tf hazard; conditioning on the module still being
        operational renormalizes the two:

            c' ∝ c·e^{-λ·dt} + h·(1 - e^{-λc·dt}),   h' ∝ h·e^{-λc·dt}.

        (Newly compromised mass failing within the same step is a
        second-order term at Table II rates and is ignored.)
        """
        dt = now - self.clock
        if dt < 0:
            raise SimulationError(f"time ran backwards: dt={dt}")
        if dt == 0.0:
            return
        self.clock = now
        leak = 1.0 - math.exp(-self.compromise_rate * dt)
        c = self.posterior
        h = 1.0 - c
        c_next = c * math.exp(-self.failure_rate * dt) + h * leak
        self.posterior = c_next / (c_next + h * (1.0 - leak))

    def sync(self, now: float, operational: np.ndarray) -> None:
        """Advance to ``now`` and reconcile the observed availability.

        Downtime entries and exits are observable (a module that is
        failed or rejuvenating produces no outputs), and every exit
        returns the module healthy (transitions Tr/Trj), so reappearance
        resets the posterior.
        """
        self.predict(now)
        changed = self.available != operational
        if not np.count_nonzero(changed):
            return
        self.posterior[changed & ~operational] = np.nan
        came_back = changed & operational
        self.posterior[came_back] = 0.0
        self.last_reset[came_back] = now
        self.available = operational.copy()

    def update(self, deviated: np.ndarray) -> None:
        """Fold one round's deviation flags into the available beliefs.

        Unavailable modules stay NaN; the caller has synced availability
        to the round's participants first.
        """
        c = self.posterior
        numerator = c * np.where(
            deviated, self.p_deviate_compromised, 1.0 - self.p_deviate_compromised
        )
        self.posterior = numerator / (
            numerator
            + (1.0 - c)
            * np.where(deviated, self.p_deviate_healthy, 1.0 - self.p_deviate_healthy)
        )

    def take_down(self, modules: np.ndarray) -> None:
        """Commanded rejuvenations: the modules stop producing outputs."""
        self.available &= ~modules
        self.posterior[modules] = np.nan
