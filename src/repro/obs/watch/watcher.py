"""The :class:`Watcher`: detectors wired to event/metric streams.

A ``Watcher`` owns one :class:`~repro.obs.watch.alerts.AlertLog` and up
to three detector families, feeding them from either of two shapes:

* **windows** (:meth:`Watcher.observe_window`) — aggregated per-round
  counts from the batch-simulation firehose (errors/trials plus the
  monitor's deviation bookkeeping);
* **events** (:meth:`Watcher.feed_event`) — normalized JSONL events,
  e.g. ``serve.solve.done`` latencies from the serve event log or a
  recorded ``--events`` file replayed by ``repro watch``.

Everything downstream of the observations is deterministic, so an
alert stream can be regenerated offline: the ``watch.plan`` event
(:meth:`Watcher.plan`) carries the full configuration *and* the
detector certificates, and :func:`replay_events` rebuilds a watcher
from that plan and refolds the stream — byte-identical alert JSONL,
which is exactly what the CI proof compares across ``jobs`` values.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Any, Iterable, Iterator

from repro.errors import ParameterError
from repro.obs.watch.alerts import AlertLog
from repro.obs.watch.detectors import (
    BurnRateDetector,
    MonitorConsistencyDetector,
    ReliabilityDriftDetector,
)

#: Event kinds a watcher never feeds back into itself.
_SKIP_PREFIXES = ("alert.", "watch.")


@dataclass(frozen=True)
class WatchConfig:
    """Full detector configuration; travels in the ``watch.plan`` event.

    ``target`` enables the reliability-drift detector (the analytic
    Eq. 1 value to hold the stream against); ``p_deviate_healthy`` /
    ``p_deviate_compromised`` enable the monitor-consistency check;
    the SLO fields configure per-endpoint burn-rate alerting (a
    request is *bad* when its latency exceeds ``slo_latency``).
    """

    target: "float | None" = None
    alpha: float = 1e-3
    drift_factors: "tuple[float, ...]" = (2.0, 4.0, 8.0, 16.0)
    block: int = 32
    slo_latency: float = 0.5
    slo_objective: float = 0.99
    fast_window: float = 300.0
    fast_burn: float = 14.4
    slow_window: float = 3600.0
    slow_burn: float = 6.0
    min_count: int = 12
    consistency_alpha: float = 1e-6
    consistency_ratio: float = 2.0
    min_participants: int = 256
    p_deviate_healthy: "float | None" = None
    p_deviate_compromised: "float | None" = None

    def __post_init__(self) -> None:
        if self.block < 1:
            raise ParameterError(f"block must be >= 1, got {self.block}")
        if self.slo_latency <= 0:
            raise ParameterError(
                f"slo_latency must be positive, got {self.slo_latency}"
            )

    def as_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        payload["drift_factors"] = list(self.drift_factors)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "WatchConfig":
        known = {name for name in cls.__dataclass_fields__}
        fields = {k: v for k, v in payload.items() if k in known}
        if "drift_factors" in fields:
            fields["drift_factors"] = tuple(fields["drift_factors"])
        return cls(**fields)


class Watcher:
    """Fold observation streams into a replayable alert stream."""

    def __init__(self, config: WatchConfig) -> None:
        self.config = config
        self.log = AlertLog()
        self.drift: "ReliabilityDriftDetector | None" = None
        if config.target is not None:
            self.drift = ReliabilityDriftDetector(
                config.target,
                alpha=config.alpha,
                factors=config.drift_factors,
            )
        self.consistency: "MonitorConsistencyDetector | None" = None
        if (
            config.p_deviate_healthy is not None
            and config.p_deviate_compromised is not None
        ):
            self.consistency = MonitorConsistencyDetector(
                p_deviate_healthy=config.p_deviate_healthy,
                p_deviate_compromised=config.p_deviate_compromised,
                alpha=config.consistency_alpha,
                ratio=config.consistency_ratio,
                min_participants=config.min_participants,
            )
        self._burn: dict[str, BurnRateDetector] = {}
        self.windows_seen = 0
        self.events_seen = 0

    # -- window side (batch firehose) ----------------------------------
    def observe_window(
        self,
        *,
        time: float,
        errors: int,
        trials: int,
        deviations: int = 0,
        participants: int = 0,
        flagged: int = 0,
    ) -> "list[dict[str, Any]]":
        """Fold one aggregated window; return the alert events emitted."""
        self.windows_seen += 1
        emitted: list[dict[str, Any]] = []
        if self.drift is not None:
            level = self.drift.update(errors, trials)
            emitted.extend(
                self.log.observe(
                    key="drift:reliability",
                    detector=self.drift.kind,
                    severity=self.drift.severity,
                    level=level,
                    time=time,
                    value=self.drift.value(),
                    threshold=self.drift.threshold,
                    context={
                        "failures": self.drift.failures,
                        "trials": self.drift.trials,
                    },
                )
            )
        if self.consistency is not None and participants:
            level = self.consistency.update(
                deviations=deviations,
                participants=participants,
                flagged=flagged,
            )
            emitted.extend(
                self.log.observe(
                    key="consistency:monitor",
                    detector=self.consistency.kind,
                    severity=self.consistency.severity,
                    level=level,
                    time=time,
                    value=self.consistency.value(),
                    threshold=self.consistency.threshold,
                    context={
                        "deviations": deviations,
                        "participants": participants,
                        "flagged": flagged,
                    },
                )
            )
        return emitted

    # -- event side (serve event log / recorded JSONL) -----------------
    def observe_latency(
        self, *, time: float, op: str, seconds: float
    ) -> "list[dict[str, Any]]":
        """Fold one request latency into the per-endpoint SLO burn."""
        detector = self._burn.get(op)
        if detector is None:
            detector = self._burn[op] = BurnRateDetector(
                objective=self.config.slo_objective,
                fast_window=self.config.fast_window,
                fast_burn=self.config.fast_burn,
                slow_window=self.config.slow_window,
                slow_burn=self.config.slow_burn,
                min_count=self.config.min_count,
            )
        level = detector.observe(time, bad=seconds > self.config.slo_latency)
        return self.log.observe(
            key=f"slo:{op}",
            detector=detector.kind,
            severity=detector.severity,
            level=level,
            time=time,
            value=detector.value(),
            threshold=detector.threshold,
            context={"op": op},
        )

    def feed_event(self, event: dict[str, Any]) -> "list[dict[str, Any]]":
        """Dispatch one normalized event to the detectors it feeds.

        Unknown kinds are ignored; alert/watch events are skipped so a
        recorded stream that already contains alerts replays cleanly.
        """
        kind = event.get("event")
        if not isinstance(kind, str) or kind.startswith(_SKIP_PREFIXES):
            return []
        self.events_seen += 1
        if kind == "serve.solve.done":
            ts = event.get("ts")
            seconds = event.get("seconds")
            op = event.get("op", "solve")
            if isinstance(ts, (int, float)) and isinstance(
                seconds, (int, float)
            ):
                return self.observe_latency(
                    time=float(ts), op=str(op), seconds=float(seconds)
                )
            return []
        if kind == "sim.batch.window":
            return self.observe_window(
                time=float(event.get("time", 0.0)),
                errors=int(event.get("errors", 0)),
                trials=int(event.get("trials", 0)),
                deviations=int(event.get("deviations", 0)),
                participants=int(event.get("participants", 0)),
                flagged=int(event.get("flagged", 0)),
            )
        return []

    # -- the replay contract -------------------------------------------
    def certificates(self) -> "list[dict[str, Any]]":
        """Plain-data error-rate certificates for every armed detector."""
        certs: list[dict[str, Any]] = []
        if self.drift is not None:
            certs.append(self.drift.certificate())
        if self.consistency is not None:
            certs.append(self.consistency.certificate())
        # One burn certificate stands for every per-op detector: they
        # all share the config, and ops appear lazily with traffic.
        certs.append(
            BurnRateDetector(
                objective=self.config.slo_objective,
                fast_window=self.config.fast_window,
                fast_burn=self.config.fast_burn,
                slow_window=self.config.slow_window,
                slow_burn=self.config.slow_burn,
                min_count=self.config.min_count,
            ).certificate()
        )
        return certs

    def plan(self) -> dict[str, Any]:
        """The ``watch.plan`` payload: config + certificates.

        This is the replay seed — everything needed to rebuild an
        identical watcher lives here, so an alert JSONL file is
        self-describing.
        """
        return {
            "event": "watch.plan",
            "config": self.config.as_dict(),
            "certificates": self.certificates(),
        }

    def alert_lines(self) -> Iterator[str]:
        """The deterministic alert JSONL: plan line, then alert events."""
        yield json.dumps(self.plan(), sort_keys=True)
        for event in self.log.events:
            yield json.dumps(event, sort_keys=True)


def replay_events(
    events: Iterable[dict[str, Any]],
    *,
    config: "WatchConfig | None" = None,
    target: "float | None" = None,
) -> Watcher:
    """Refold a recorded event stream into a fresh :class:`Watcher`.

    The configuration comes from (in priority order) the ``config``
    argument, or the first ``watch.plan`` event in the stream; a
    ``target`` override replaces the plan's drift target (used by the
    CI drift-injection proof to hold a degraded stream against the
    clean analytic value).  Raises :class:`ParameterError` when no
    configuration can be found.
    """
    watcher: "Watcher | None" = None
    if config is not None:
        if target is not None:
            config = replace(config, target=target)
        watcher = Watcher(config)
    for event in events:
        kind = event.get("event")
        if watcher is None and kind == "watch.plan":
            plan_config = WatchConfig.from_dict(event.get("config", {}))
            if target is not None:
                plan_config = replace(plan_config, target=target)
            watcher = Watcher(plan_config)
            continue
        if watcher is not None:
            watcher.feed_event(event)
    if watcher is None:
        raise ParameterError(
            "no watch configuration: pass config= or replay a stream "
            "containing a watch.plan event"
        )
    return watcher
