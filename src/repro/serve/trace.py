"""Request-scoped trace assembly for the reliability service.

The service cannot reuse :meth:`repro.obs.tracer.Tracer.graft` directly
for per-request traces: grafting reads the *live* tracer clock, and a
server handles interleaved requests concurrently, so any live clock
read would make the assembled trace depend on scheduling.  Instead the
executor workers capture their spans under a private per-invocation
clock (:func:`repro.engine.sweep.run_captured`) and this module
assembles the finished request's trace as a **pure function** of those
captured records — under a :class:`~repro.obs.clock.ManualClock` the
resulting Chrome trace is byte-stable no matter how the event loop
interleaved the work.

One :class:`PointTrace` holds one evaluation's capture (a sweep point,
or the single point of a traced ``/v1/solve``).  :func:`assemble_trace`
lays the points out on deterministic worker lanes — lane ``i + 1`` for
point ``i``, mirroring how :mod:`repro.engine.sweep` stamps grafted
chunks — beneath a synthetic root span, re-parenting and id-shifting
the worker records through the same
:func:`~repro.obs.tracer.shift_records` as :meth:`Tracer.graft`.  Cache-hit
and coalesced points carry no records; they render as zero-length
spans annotated with their ``cache`` source, so a trace shows *why*
a point was cheap, not just that it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.tracer import SpanRecord, shift_records

#: Bounded retention of per-request traces (oldest evicted first).
DEFAULT_TRACE_RETENTION = 64


@dataclass
class PointTrace:
    """One evaluation's captured observability, as plain data."""

    index: int
    attrs: dict[str, Any] = field(default_factory=dict)
    cache: str = "miss"
    records: list[SpanRecord] = field(default_factory=list)
    queue_seconds: float = 0.0
    compute_seconds: float = 0.0


def _extent(records: list[SpanRecord]) -> tuple[float, float]:
    """The ``[earliest start, latest end]`` envelope of a record list."""
    if not records:
        return 0.0, 0.0
    start = min(record.start for record in records)
    end = max(
        record.end if record.end is not None else record.start
        for record in records
    )
    return start, max(start, end)


def assemble_trace(
    name: str,
    attrs: dict[str, Any],
    points: "list[PointTrace | None]",
) -> list[SpanRecord]:
    """Flat span records for one request: root, point spans, worker spans.

    ``points`` may contain ``None`` entries (a sweep still in flight);
    those are skipped, so a partial trace is still well-formed.  The
    output is deterministic given the inputs: lane numbering follows
    point index, ids are assigned in point order, and no clock is read.
    """
    records: list[SpanRecord] = []
    root = SpanRecord(
        span_id=0,
        parent_id=None,
        name=name,
        attrs=dict(attrs),
        start=0.0,
        end=0.0,
        process=0,
        thread=0,
    )
    records.append(root)
    next_id = 1
    total_end = 0.0
    for point in points:
        if point is None:
            continue
        lane = point.index + 1
        start, end = _extent(point.records)
        point_record = SpanRecord(
            span_id=next_id,
            parent_id=0,
            name=f"{name}.point",
            attrs={"index": point.index, "cache": point.cache, **point.attrs},
            start=start,
            end=end,
            measures={
                "queue_seconds": point.queue_seconds,
                "compute_seconds": point.compute_seconds,
            },
            process=lane,
            thread=0,
        )
        records.append(point_record)
        shifted, next_id = shift_records(
            point.records,
            offset=point_record.span_id + 1,
            parent=point_record.span_id,
            process=lane,
            thread=0,
        )
        records.extend(shifted)
        total_end = max(total_end, end)
    root.end = total_end
    return records


@dataclass
class TraceRecord:
    """One request's stored trace: identity plus its points."""

    name: str
    attrs: dict[str, Any]
    unit: str  # "ticks" under a manual clock, else "s"
    points: "list[PointTrace | None]"


class TraceStore:
    """Bounded id -> :class:`TraceRecord` table (oldest evicted first)."""

    def __init__(self, retention: int = DEFAULT_TRACE_RETENTION) -> None:
        if retention < 1:
            raise ValueError(f"retention must be >= 1, got {retention}")
        self.retention = retention
        self._traces: dict[str, TraceRecord] = {}

    def __len__(self) -> int:
        return len(self._traces)

    def create(
        self, trace_id: str, *, name: str, attrs: dict[str, Any], unit: str,
        points: int = 1,
    ) -> TraceRecord:
        record = TraceRecord(
            name=name, attrs=dict(attrs), unit=unit, points=[None] * points
        )
        self._traces[trace_id] = record
        while len(self._traces) > self.retention:
            del self._traces[next(iter(self._traces))]
        return record

    def get(self, trace_id: str) -> TraceRecord | None:
        return self._traces.get(trace_id)
