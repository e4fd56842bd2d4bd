"""Async job registry backing ``/v1/sweep`` and ``/v1/jobs/{id}``.

A :class:`Job` is one long-running evaluation: it moves through
``pending -> running -> done | failed``, records its events in an
unbounded :class:`~repro.obs.events.EventStream` (one dict per
lifecycle moment, stamped with the observability clock), and holds its
result once finished.  :class:`JobStore` hands out sequential ids,
bounds how many jobs may be live at once (admission back-pressure) and
how many finished jobs are remembered (oldest evicted first).

Finishing or failing a job closes its log, so an HTTP tail following
it with :meth:`EventStream.wait` ends after the last event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs import clock as _clockmod
from repro.obs.events import EventStream

#: Finished jobs remembered for polling before eviction.
DEFAULT_KEEP_FINISHED = 256

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: States in which a job still occupies a live-job slot.
LIVE_STATES = (PENDING, RUNNING)


@dataclass
class Job:
    """One asynchronous evaluation and its event history."""

    id: str
    kind: str
    spec: dict[str, Any] = field(default_factory=dict)
    status: str = PENDING
    result: Any = None
    error: str | None = None
    log: EventStream = field(default_factory=EventStream)
    #: Optional per-event callback; the service forwards job events
    #: into its server-wide log through this without the job knowing
    #: anything about the transport.
    on_event: Any = None

    @property
    def finished(self) -> bool:
        return self.status in (DONE, FAILED)

    @property
    def events(self) -> list[dict[str, Any]]:
        return self.log.events

    def emit(self, event_kind: str, **fields: Any) -> dict[str, Any]:
        """Append one event (obs-clock stamped) and wake streamers."""
        event = {
            "event": event_kind,
            "ts": _clockmod.now(),
            "job": self.id,
            **fields,
        }
        self.log.append(event)
        if self.on_event is not None:
            self.on_event(event)
        return event

    def start(self) -> None:
        self.status = RUNNING
        self.emit("job.start", kind=self.kind)

    def finish(self, result: Any) -> None:
        self.result = result
        self.status = DONE
        self.emit("job.done", kind=self.kind)
        self.log.close()

    def fail(self, error: str) -> None:
        self.error = error
        self.status = FAILED
        self.emit("job.failed", kind=self.kind, error=error)
        self.log.close()

    def describe(self) -> dict[str, Any]:
        """The polling view served by ``GET /v1/jobs/{id}``."""
        payload: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "events": self.log.seq,
        }
        if self.status == DONE:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobStore:
    """Sequential-id job table with live-count and retention bounds."""

    def __init__(
        self,
        *,
        max_live: int = 16,
        keep_finished: int = DEFAULT_KEEP_FINISHED,
    ) -> None:
        if max_live < 1:
            raise ValueError(f"max_live must be >= 1, got {max_live}")
        self.max_live = max_live
        self.keep_finished = keep_finished
        self._jobs: dict[str, Job] = {}
        self._serial = 0

    def __len__(self) -> int:
        return len(self._jobs)

    def live_count(self) -> int:
        return sum(1 for job in self._jobs.values() if job.status in LIVE_STATES)

    def create(self, kind: str, spec: dict[str, Any]) -> Job | None:
        """A fresh pending job, or ``None`` when at the live bound."""
        if self.live_count() >= self.max_live:
            return None
        self._serial += 1
        job = Job(id=f"job-{self._serial:06d}", kind=kind, spec=spec)
        self._jobs[job.id] = job
        self._evict_finished()
        return job

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def _evict_finished(self) -> None:
        finished = [
            job_id
            for job_id, job in self._jobs.items()
            if job.finished
        ]
        for job_id in finished[: max(0, len(finished) - self.keep_finished)]:
            del self._jobs[job_id]

    def describe(self) -> dict[str, int]:
        by_status: dict[str, int] = {}
        for job in self._jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {"total": len(self._jobs), **by_status}
