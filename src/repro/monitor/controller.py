"""The scalar adapter around a one-group :class:`HealthMonitor`.

:class:`MonitorController` is what scalar callers talk to: the batch
runtime's reference interpreter
(:func:`~repro.simulation.batch.simulate_reference`, one controller per
group) and the serve ``/monitor`` view.  It translates between a
per-round, per-module vocabulary and the array core
(:class:`~repro.monitor.core.HealthMonitor` at groups=1):

* per vote round, the raw outputs and the voter's tally become the
  participation and deviation masks (:func:`~repro.monitor.signals.round_signal`)
  — availability is inferred purely from who produced an output, so
  the monitor is deployable as-is;
* per clock tick (the DSPN's Trc firings), the caller's availability
  list becomes the operational mask;
* the core's rejuvenation mask comes back as module ids;
* ground-truth transitions arrive per module and go to the core's
  ledger as one-hot masks.

It keeps the two things the batch firehose deliberately skips: the
per-module ``monitor.flag`` / ``monitor.unflag`` /
``monitor.rejuvenation`` events, and a rolling reliability window over
the last :data:`ROLLING_WINDOW` rounds.

With the passive ``observe`` mode the controller is a pure observer:
the caller keeps its built-in rejuvenation clock and the trajectory is
identical to an unmonitored run.  Ground-truth transitions feed the
ledger only; decisions never see them.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import SimulationError
from repro.monitor.core import HealthMonitor
from repro.monitor.metrics import MonitorSummary
from repro.monitor.policies import MonitorConfig
from repro.monitor.signals import round_signal
from repro.obs.events import emit as emit_event
from repro.perception.parameters import PerceptionParameters
from repro.simulation.voter import VoteOutcome, VoteTally

#: Rounds covered by the rolling empirical reliability.
ROLLING_WINDOW = 1000


class MonitorController:
    """Runtime reliability monitor and adaptive rejuvenation controller.

    Parameters
    ----------
    parameters:
        The system configuration (must match the simulated system's).
    config:
        The monitoring options; the default observes passively.
    """

    def __init__(
        self,
        parameters: PerceptionParameters,
        config: MonitorConfig = MonitorConfig(),
    ) -> None:
        if config.drives_clock and not parameters.rejuvenation:
            raise SimulationError(
                f"policy {config.policy!r} drives the rejuvenation clock but "
                "the configuration has rejuvenation disabled"
            )
        self.parameters = parameters
        self.config = config
        self.begin_run()

    @property
    def drives_clock(self) -> bool:
        """Whether the controller replaces the built-in rejuvenation clock."""
        return self.config.drives_clock

    def begin_run(self) -> None:
        """Reset all monitoring state to t=0."""
        self.core = HealthMonitor(self.parameters, self.config)
        self._recent: deque[bool] = deque(maxlen=ROLLING_WINDOW)
        self._recent_errors = 0

    # ------------------------------------------------------------------
    # observer hooks
    # ------------------------------------------------------------------
    def observe_round(
        self,
        now: float,
        outputs: "list[int | None]",
        tally: VoteTally,
        outcome: VoteOutcome,
    ) -> list[int]:
        """Fold one vote round in; return module ids to rejuvenate now."""
        signal = round_signal(now, outputs, tally)
        is_error = outcome is VoteOutcome.ERROR
        commands = self.core.observe_round(
            now,
            np.array([signal.participated]),
            np.array([signal.deviated]),
            int(is_error),
        )
        if self.core.crossings is not None:
            new_flags, unflagged = self.core.crossings
            for module_id in np.flatnonzero(new_flags[0] | unflagged[0]).tolist():
                if new_flags[0, module_id]:
                    emit_event("monitor.flag", module=module_id, time=now)
                else:
                    emit_event("monitor.unflag", module=module_id)
        if len(self._recent) == ROLLING_WINDOW:
            self._recent_errors -= self._recent[0]
        self._recent.append(is_error)
        self._recent_errors += is_error
        return self._module_ids(commands)

    def on_tick(
        self, now: float, operational: "list[bool] | None" = None
    ) -> list[int]:
        """A rejuvenation-clock tick: accrue budget, consult the policy.

        ``operational`` is the current per-module availability
        (which replicas are up is observable in deployment too); passing
        it keeps tick-time decisions fresh when faults occurred since
        the last vote round.
        """
        mask = (
            self.core.estimator.available
            if operational is None
            else np.array([operational])
        )
        return self._module_ids(self.core.on_tick(now, mask))

    def notify_transition(self, now: float, module_id: int, event: str) -> None:
        """Ground-truth state transition (metrics instrumentation only)."""
        mask = np.zeros((1, self.parameters.n_modules), dtype=bool)
        mask[0, module_id] = True
        self.core.record_transition(now, event, mask)
        if event == "rejuvenation-start":
            emit_event("monitor.rejuvenation", module=module_id, time=now)

    def summary(self) -> MonitorSummary:
        rolling = (
            1.0 - self._recent_errors / len(self._recent) if self._recent else 1.0
        )
        return self.core.report().summary(rolling_reliability=rolling)

    @staticmethod
    def _module_ids(commands: "np.ndarray | None") -> list[int]:
        if commands is None:
            return []
        return np.flatnonzero(commands[0]).tolist()
