"""Monitoring quality metrics: detection latency, false triggers, reliability.

The estimator and policies act on observables only; judging *how well*
they act needs the ground truth the simulation happens to know.  The
runtimes therefore stream their actual state transitions into
:class:`MonitorMetrics` (and nowhere else): it is pure instrumentation,
a one-way sink that never feeds back into decisions, kept as
``(groups, n_modules)`` masks so one ledger serves one replica group or
thousands.

Three families of measurements come out:

* **detection** — for every actual compromise, the delay until the
  estimator's posterior first crossed the detection threshold for that
  module; compromises that ended (failed, repaired, rejuvenated)
  before detection count as *censored*, and threshold crossings on
  healthy modules count as *false alarms*;
* **triggering** — every rejuvenation start, attributed to whether the
  victim really was compromised; the false-trigger rate is the fraction
  of rejuvenations wasted on healthy modules (the paper's blind policy
  pays exactly this price);
* **reliability** — the cumulative empirical output reliability,
  directly comparable to the analytic E[R_sys] (the scalar adapter
  adds a rolling window over its last 1000 rounds).

Every measurement is mirrored onto the global :mod:`repro.obs` metrics
registry as ``monitor.*`` counters, so one OpenMetrics dump covers the
solver pipeline and the monitoring loop together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs import counter as obs_counter


@dataclass(frozen=True)
class MonitorSummary:
    """Aggregated monitoring metrics of one run.

    ``mean_detection_latency`` is ``None`` when nothing was detected
    (e.g. no compromise occurred, or the policy rejuvenated every victim
    before the posterior crossed the threshold).
    """

    compromises: int
    detected: int
    censored: int
    false_alarms: int
    mean_detection_latency: "float | None"
    max_detection_latency: "float | None"
    triggers: int
    false_triggers: int
    rounds: int
    errors: int
    rolling_reliability: "float | None"  # None when no window was kept
    empirical_reliability: float

    @property
    def false_trigger_rate(self) -> float:
        """Fraction of rejuvenations spent on actually-healthy modules."""
        return self.false_triggers / self.triggers if self.triggers else 0.0

    @property
    def detection_rate(self) -> float:
        """Fraction of compromises detected before they ended."""
        return self.detected / self.compromises if self.compromises else 0.0

    def render(self) -> str:
        """Human-readable one-block summary."""
        latency = (
            f"{self.mean_detection_latency:.1f} s"
            if self.mean_detection_latency is not None
            else "n/a"
        )
        reliability = (
            f"reliability          : {self.empirical_reliability:.5f} "
            f"(cumulative over {self.rounds} rounds)"
            if self.rolling_reliability is None
            else f"rolling reliability  : {self.rolling_reliability:.5f} "
            f"(cumulative {self.empirical_reliability:.5f} "
            f"over {self.rounds} rounds)"
        )
        return "\n".join(
            [
                f"compromises          : {self.compromises} "
                f"({self.detected} detected, {self.censored} censored)",
                f"mean detection delay : {latency}",
                f"false alarms         : {self.false_alarms}",
                f"rejuvenations        : {self.triggers} "
                f"({self.false_triggers} on healthy modules, "
                f"rate {self.false_trigger_rate:.2f})",
                reliability,
            ]
        )


@dataclass(frozen=True)
class MonitorReport:
    """Final monitoring state and quality totals of a run.

    Arrays are ``(groups, n_modules)``; ``posterior`` holds NaN for
    modules that ended the run unavailable.
    """

    posterior: np.ndarray
    available: np.ndarray
    flagged: np.ndarray
    compromises: int
    detected: int
    censored: int
    false_alarms: int
    flags: int
    latency_sum: float
    latency_max: float | None
    triggers: int
    false_triggers: int
    rounds: int
    errors: int

    def summary(self, rolling_reliability: "float | None" = None) -> MonitorSummary:
        """The totals as a :class:`MonitorSummary` (fleet aggregate).

        ``rolling_reliability`` is the rate over a recent window, given
        by callers that keep one (:class:`MonitorController`); the batch
        runtime keeps none, so it stays ``None`` and :meth:`render`
        prints the cumulative rate alone.
        """
        cumulative = 1.0 - self.errors / self.rounds if self.rounds else 1.0
        return MonitorSummary(
            compromises=self.compromises,
            detected=self.detected,
            censored=self.censored,
            false_alarms=self.false_alarms,
            mean_detection_latency=(
                self.latency_sum / self.detected if self.detected else None
            ),
            max_detection_latency=self.latency_max,
            triggers=self.triggers,
            false_triggers=self.false_triggers,
            rounds=self.rounds,
            errors=self.errors,
            rolling_reliability=rolling_reliability,
            empirical_reliability=cumulative,
        )


def merge_monitor_reports(reports: "list[MonitorReport]") -> MonitorReport:
    """Concatenate per-chunk reports into one fleet-wide report."""
    maxima = [r.latency_max for r in reports if r.latency_max is not None]
    return MonitorReport(
        posterior=np.concatenate([r.posterior for r in reports]),
        available=np.concatenate([r.available for r in reports]),
        flagged=np.concatenate([r.flagged for r in reports]),
        compromises=sum(r.compromises for r in reports),
        detected=sum(r.detected for r in reports),
        censored=sum(r.censored for r in reports),
        false_alarms=sum(r.false_alarms for r in reports),
        flags=sum(r.flags for r in reports),
        latency_sum=sum(r.latency_sum for r in reports),
        latency_max=max(maxima) if maxima else None,
        triggers=sum(r.triggers for r in reports),
        false_triggers=sum(r.false_triggers for r in reports),
        rounds=sum(r.rounds for r in reports),
        errors=sum(r.errors for r in reports),
    )


class MonitorMetrics:
    """Ground-truth ledger of flags, detections, censoring and triggers.

    ``flagged`` marks modules whose posterior crossed the detection
    threshold upwards and has not crossed back (or been cleared by a
    transition); ``since`` holds the start of each open, still
    undetected compromise episode (NaN: none); ``detected`` marks
    compromises already caught, so their later rejuvenation counts as
    justified.
    """

    def __init__(self, groups: int, n_modules: int) -> None:
        shape = (groups, n_modules)
        self.flagged = np.zeros(shape, dtype=bool)
        self.detected_mask = np.zeros(shape, dtype=bool)
        self.since = np.full(shape, np.nan)
        self.compromises = 0
        self.detected = 0
        self.censored = 0
        self.false_alarms = 0
        self.flags = 0
        self.latency_sum = 0.0
        self.latency_max: float | None = None
        self.triggers = 0
        self.false_triggers = 0
        self.rounds = 0
        self.errors = 0

    def record_crossings(
        self, now: float, up: np.ndarray, down: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold posterior threshold crossings in.

        Returns the masks of new flags and of cleared standing flags.
        A new flag on an open compromise episode detects it at latency
        ``now - since``; on a healthy module it is a false alarm.
        """
        new_flags = up & ~self.flagged
        unflagged = down & self.flagged
        self.flagged ^= new_flags | unflagged
        count = int(np.count_nonzero(new_flags))
        if not count:
            return new_flags, unflagged
        obs_counter("monitor.flags").inc(count)
        self.flags += count
        caught = new_flags & ~np.isnan(self.since)
        n_caught = int(np.count_nonzero(caught))
        if n_caught:
            latencies = now - self.since[caught]
            self.detected_mask |= caught
            self.detected += n_caught
            self.latency_sum += float(latencies.sum())
            self.latency_max = max(
                self.latency_max if self.latency_max is not None else -math.inf,
                float(latencies.max()),
            )
            self.since[caught] = np.nan
        false_alarms = count - n_caught
        if false_alarms:
            self.false_alarms += false_alarms
            obs_counter("monitor.false_alarms").inc(false_alarms)
        return new_flags, unflagged

    def record_transition(self, now: float, kind: str, mask: np.ndarray) -> None:
        """Fold one kind of actual state transition in.

        ``kind`` is the runtime's transition kind: ``compromise``,
        ``fail``, ``repair``, ``rejuvenation-start`` or
        ``rejuvenation-done``.
        """
        if kind == "compromise":
            count = int(np.count_nonzero(mask))
            self.compromises += count
            obs_counter("monitor.compromises").inc(count)
            while_flagged = mask & self.flagged
            instant = int(np.count_nonzero(while_flagged))
            if instant:
                # the filter was already (rightly or wrongly) suspicious;
                # the compromise is detected the moment it happens
                self.detected_mask |= while_flagged
                self.detected += instant
                self.latency_max = max(self.latency_max or 0.0, 0.0)
            self.since[mask & ~self.flagged] = now
            return
        if kind in ("fail", "rejuvenation-start"):
            open_episode = mask & ~np.isnan(self.since)
            if kind == "rejuvenation-start":
                count = int(np.count_nonzero(mask))
                self.triggers += count
                obs_counter("monitor.rejuvenations").inc(count)
                false = count - int(
                    np.count_nonzero(open_episode | (mask & self.detected_mask))
                )
                if false:
                    self.false_triggers += false
                    obs_counter("monitor.rejuvenations.false").inc(false)
            self.censored += int(np.count_nonzero(open_episode))
        # the module is down or returns healthy; stale flags would
        # misattribute the next compromise
        self.since[mask] = np.nan
        self.flagged &= ~mask
        self.detected_mask &= ~mask

    def record_rounds(self, rounds: int, errors: int) -> None:
        """Count vote rounds and the erroneous ones among them."""
        self.rounds += rounds
        self.errors += errors
        obs_counter("monitor.rounds").inc(rounds)
        if errors:
            obs_counter("monitor.errors").inc(errors)
