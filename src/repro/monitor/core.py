"""The health monitor: filter, policy and ledger over ``(groups, n_modules)``.

:class:`HealthMonitor` is the one implementation of the monitoring
loop.  Per vote round it folds every group's participation and
deviation masks into the Bayesian filter
(:class:`~repro.monitor.estimator.HealthEstimator`), records threshold
crossings in the ground-truth ledger
(:class:`~repro.monitor.metrics.MonitorMetrics`) and, for active modes,
asks the selection rule (:func:`~repro.monitor.policies.select_rejuvenations`)
whom to rejuvenate now within the token-bucket budget and guard g2.
Clock ticks accrue budget and give the policy its periodic decision
point.

The batch runtime drives one instance per chunk of replica groups;
:class:`~repro.monitor.controller.MonitorController` wraps a one-group
instance for scalar callers (the reference interpreter, ``/monitor``).
Every operation is an array operation over all groups at once — there
is no per-group or per-module Python loop.
"""

from __future__ import annotations

import numpy as np

from repro.monitor.estimator import HealthEstimator
from repro.monitor.metrics import MonitorMetrics, MonitorReport
from repro.monitor.policies import MonitorConfig, select_rejuvenations
from repro.obs import counter as obs_counter
from repro.obs import histogram as obs_histogram
from repro.perception.parameters import PerceptionParameters


class HealthMonitor:
    """Monitoring state of ``groups`` replica groups, array-resident."""

    def __init__(
        self,
        parameters: PerceptionParameters,
        config: MonitorConfig,
        groups: int = 1,
    ) -> None:
        self.config = config
        self.r = parameters.r
        self.budget_cap = (
            config.budget_cap if config.budget_cap is not None else parameters.r
        )
        self.estimator = HealthEstimator(parameters, groups)
        self.metrics = MonitorMetrics(groups, parameters.n_modules)
        self.tokens = np.zeros(groups, dtype=np.int64)
        #: The last round's (new flags, cleared flags) masks, or None
        #: when no posterior crossed the detection threshold.
        self.crossings: "tuple[np.ndarray, np.ndarray] | None" = None

    @property
    def drives_clock(self) -> bool:
        return self.config.drives_clock

    def observe_round(
        self,
        now: float,
        participated: np.ndarray,
        deviated: np.ndarray,
        errors: int,
        *,
        participants: "np.ndarray | None" = None,
        deviations: "np.ndarray | None" = None,
    ) -> "np.ndarray | None":
        """Fold one vote round in; return a start mask in threshold mode.

        ``participants`` and ``deviations`` are the per-group counts of
        the two masks; a caller that keeps them passes them in, anyone
        else leaves them to be counted here.  Crossings compare each
        belief before the round's prediction with the updated one.
        """
        estimator = self.estimator
        threshold = self.config.detection_threshold
        before = estimator.posterior
        estimator.sync(now, participated)
        estimator.update(deviated)
        after = estimator.posterior
        was_above = before >= threshold
        above = after >= threshold
        self.crossings = None
        if np.count_nonzero(above != was_above):
            self.crossings = self.metrics.record_crossings(
                now, above & (before < threshold), was_above & (after < threshold)
            )
        if participants is None:
            participants = participated.sum(axis=1)
        if deviations is None:
            deviations = deviated.sum(axis=1)
        updates = int(participants.sum())
        if updates:
            obs_counter("monitor.estimator.updates").inc(updates)
        # an empty round has no deviations: its fraction comes out 0/1
        obs_histogram("monitor.disagreement").observe_many(
            deviations / np.maximum(participants, 1)
        )
        self.metrics.record_rounds(participated.shape[0], errors)
        if self.config.mode == "threshold":
            return self._select(now)
        return None

    def on_tick(self, now: float, operational: np.ndarray) -> "np.ndarray | None":
        """A rejuvenation-clock tick: accrue budget, consult the policy."""
        self.tokens = np.minimum(self.budget_cap, self.tokens + self.r)
        self.estimator.sync(now, operational)
        if not self.drives_clock:
            return None
        return self._select(now)

    def record_transition(self, now: float, kind: str, mask: np.ndarray) -> None:
        """Ground-truth transitions (instrumentation only)."""
        self.metrics.record_transition(now, kind, mask)

    def _select(self, now: float) -> "np.ndarray | None":
        """Pick, spend for and take down this moment's rejuvenations."""
        estimator = self.estimator
        estimator.predict(now)
        bound = self.config.bound if self.config.mode == "threshold" else None
        if not np.count_nonzero(self.tokens) or (
            bound is not None
            and not np.count_nonzero(estimator.posterior >= bound)
        ):
            return None
        commands = select_rejuvenations(
            estimator.posterior,
            estimator.available,
            now - estimator.last_reset,
            self.tokens,
            self.r,
            bound,
        )
        self.tokens -= commands.sum(axis=1)
        # commanded modules go down without waiting for the next round
        estimator.take_down(commands)
        return commands

    def report(self) -> MonitorReport:
        metrics = self.metrics
        return MonitorReport(
            posterior=self.estimator.posterior,
            available=self.estimator.available,
            flagged=metrics.flagged,
            compromises=metrics.compromises,
            detected=metrics.detected,
            censored=metrics.censored,
            false_alarms=metrics.false_alarms,
            flags=metrics.flags,
            latency_sum=metrics.latency_sum,
            latency_max=metrics.latency_max,
            triggers=metrics.triggers,
            false_triggers=metrics.false_triggers,
            rounds=metrics.rounds,
            errors=metrics.errors,
        )
