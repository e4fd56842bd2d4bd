"""``repro.obs.watch``: online drift detection and SLO alerting.

The observability layer so far *records* — spans, metrics, events — and
leaves judgement to a human staring at ``repro top``.  This package
closes that loop: it consumes the normalized event/metric streams the
system already produces (the batch-simulation firehose, the serve event
log, any ``--events`` JSONL file) and emits a typed, replayable
**alert stream** with statistically certified error rates.

Three detector families (:mod:`repro.obs.watch.detectors`):

* :class:`ReliabilityDriftDetector` — a sequential mixture-e-value test
  comparing the empirical success stream against the analytic Eq. 1
  target.  By Ville's inequality the probability of *ever* firing on a
  clean stream is at most the configured ``alpha``; the certificate
  also carries a sample bound for firing under a true degradation.
* :class:`BurnRateDetector` — multi-window (fast + slow) SLO burn-rate
  alerting over per-request good/bad observations (latency objectives
  on the serve stream).
* :class:`MonitorConsistencyDetector` — a Hoeffding-certified check
  that the runtime monitor's flagged-module posterior is consistent
  with the observed vote-disagreement rate.

Alert lifecycle (:mod:`repro.obs.watch.alerts`) is a pure fold over
observations — ``pending -> firing -> resolved`` with dedup keys and
severities — so the whole layer is snapshot-testable and byte-stable:
the same stream always produces the same alert JSONL.

:class:`~repro.obs.watch.watcher.Watcher` wires detectors to streams;
:mod:`repro.obs.watch.batch` folds a batch-simulation report window by
window; ``repro watch`` replays any recorded events file offline.  See
``docs/OBSERVABILITY.md`` ("Alerting").
"""

from repro.obs.watch.alerts import (
    ALERT_EVENTS,
    FIRING,
    OK,
    PENDING,
    Alert,
    AlertLog,
)
from repro.obs.watch.batch import (
    batch_watch_config,
    batch_windows,
    watch_batch_report,
)
from repro.obs.watch.detectors import (
    BurnRateDetector,
    MonitorConsistencyDetector,
    ReliabilityDriftDetector,
)
from repro.obs.watch.watcher import WatchConfig, Watcher, replay_events

__all__ = [
    "ALERT_EVENTS",
    "Alert",
    "AlertLog",
    "BurnRateDetector",
    "FIRING",
    "MonitorConsistencyDetector",
    "OK",
    "PENDING",
    "ReliabilityDriftDetector",
    "WatchConfig",
    "Watcher",
    "batch_watch_config",
    "batch_windows",
    "replay_events",
    "watch_batch_report",
]
