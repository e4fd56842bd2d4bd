"""Context-local span tracing with a near-zero disabled path.

Tracing is **off by default**: :func:`span` then returns a shared no-op
context manager — one ``ContextVar`` read and no allocation that
survives the call — so the instrumentation threaded through the solver
pipeline costs nothing measurable in production runs (the CI overhead
budget in ``benchmarks/bench_obs_overhead.py`` enforces <5 %).

Under :func:`tracing`, every ``with span("ctmc.solve", net=...)`` block
appends a :class:`SpanRecord` to the context's :class:`Tracer`.  Records
are plain picklable data, so worker processes can capture spans for
their sweep points and ship them back to the parent, which grafts them
into one tree (:meth:`Tracer.graft`) in deterministic point order —
``--jobs 4`` reassembles to the same normalized tree as ``--jobs 1``.

Two kinds of span annotation, with different determinism contracts:

* **attrs** (keyword arguments of :func:`span`) identify *what* ran —
  net names, point indices, experiment ids.  They are part of the
  normalized tree and must be identical across execution modes.
* **measures** (:meth:`set` on the active span) record *how* it ran —
  residuals, state counts, cache hits.  They are excluded from
  normalization because they may legitimately differ between serial and
  parallel runs (e.g. per-process cache hit patterns).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any

from repro.obs import clock as _clockmod


@dataclass
class SpanRecord:
    """One finished (or still-open) span, as flat picklable data.

    ``process`` and ``thread`` are execution *lanes*, not OS ids: the
    parent tracer records in lane ``(0, 0)`` and :meth:`Tracer.graft`
    stamps reassembled worker subtrees with their deterministic chunk
    and point indices.  Like measures, lanes are excluded from
    normalized trees (they depend on ``jobs``); the Chrome trace
    exporter maps them onto pid/tid tracks.
    """

    span_id: int
    parent_id: int | None
    name: str
    attrs: dict[str, Any]
    start: float
    end: float | None = None
    measures: dict[str, Any] = field(default_factory=dict)
    status: str = "ok"
    process: int = 0
    thread: int = 0

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def as_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": dict(self.attrs),
            "start": self.start,
            "end": self.end,
            "measures": dict(self.measures),
            "status": self.status,
            "process": self.process,
            "thread": self.thread,
        }


def shift_records(
    records: list[SpanRecord],
    *,
    offset: int,
    parent: int | None,
    process: int,
    thread: int,
) -> tuple[list[SpanRecord], int]:
    """Copies of ``records`` re-homed under ``parent``, and the next free id.

    Every span id is shifted by ``offset``; root records
    (``parent_id is None``) hang from ``parent`` and every copy is
    stamped with the ``process``/``thread`` lane.  The returned id is
    the first one past the shifted records (``offset`` when there are
    none).  :meth:`Tracer.graft` and the service's per-request trace
    assembly both reassemble captured spans through this one function.
    """
    shifted = [
        SpanRecord(
            span_id=record.span_id + offset,
            parent_id=(
                parent if record.parent_id is None else record.parent_id + offset
            ),
            name=record.name,
            attrs=dict(record.attrs),
            start=record.start,
            end=record.end,
            measures=dict(record.measures),
            status=record.status,
            process=process,
            thread=thread,
        )
        for record in records
    ]
    next_id = max((record.span_id + 1 for record in shifted), default=offset)
    return shifted, next_id


class _NullSpan:
    """The disabled path: a shared, stateless, reusable context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **measures: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager wrapping one open :class:`SpanRecord`."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self.record, "error" if exc_type else "ok")
        return False

    def set(self, **measures: Any) -> "_ActiveSpan":
        """Attach runtime measurements (excluded from normalized trees)."""
        self.record.measures.update(measures)
        return self


class Tracer:
    """Collects the spans of one traced execution context.

    Records are appended in start order; child order in the assembled
    tree therefore follows execution order, which both serial and
    ordered-parallel sweeps make deterministic.
    """

    def __init__(self, clock: "_clockmod.Clock | None" = None) -> None:
        self.clock = clock
        self.records: list[SpanRecord] = []
        self._next_id = 0
        self._stack: list[int] = []

    def _now(self) -> float:
        clock = self.clock
        return clock.now() if clock is not None else _clockmod.now()

    def start(self, name: str, attrs: dict[str, Any]) -> _ActiveSpan:
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            attrs=attrs,
            start=self._now(),
        )
        self._next_id += 1
        self.records.append(record)
        self._stack.append(record.span_id)
        return _ActiveSpan(self, record)

    def _finish(self, record: SpanRecord, status: str) -> None:
        record.end = self._now()
        record.status = status
        self._stack.pop()

    def graft(
        self,
        records: list[SpanRecord],
        *,
        process: int = 0,
        thread: int = 0,
    ) -> None:
        """Attach externally captured records under the current span.

        Ids are shifted past this tracer's counter and root records
        (``parent_id is None``) are re-parented onto the span currently
        open here.  Called by the sweep executor once per point, in
        point order, so the resulting tree is independent of worker
        scheduling.  ``process``/``thread`` stamp the grafted records'
        execution lane (the sweep passes its deterministic chunk and
        point indices) for pid/tid-aware exporters.
        """
        if not records:
            return
        shifted, self._next_id = shift_records(
            records,
            offset=self._next_id,
            parent=self._stack[-1] if self._stack else None,
            process=process,
            thread=thread,
        )
        self.records.extend(shifted)

    def roots(self) -> list["TraceNode"]:
        """Assemble the records into a forest of :class:`TraceNode`."""
        return build_tree(self.records)

    def to_jsonl(self) -> str:
        """One JSON object per record, in start order."""
        return "\n".join(
            json.dumps(record.as_dict(), sort_keys=True)
            for record in self.records
        )


@dataclass
class TraceNode:
    """One node of an assembled trace tree."""

    name: str
    attrs: dict[str, Any]
    start: float
    end: float
    measures: dict[str, Any]
    status: str
    children: list["TraceNode"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children)

    def normalized(self) -> dict[str, Any]:
        """The deterministic shape of the trace: names, attrs, structure.

        Timings, measures, and status are dropped — they may differ
        between runs and between serial and parallel execution; the
        normalized tree must not.
        """
        return {
            "name": self.name,
            "attrs": {key: self.attrs[key] for key in sorted(self.attrs)},
            "children": [child.normalized() for child in self.children],
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "self_time": self.self_time,
            "measures": dict(self.measures),
            "status": self.status,
            "children": [child.as_dict() for child in self.children],
        }

    def walk(self):
        """Yield this node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def build_tree(records: list[SpanRecord]) -> list[TraceNode]:
    """Assemble flat records into root nodes, preserving record order."""
    nodes: dict[int, TraceNode] = {}
    roots: list[TraceNode] = []
    for record in records:
        node = TraceNode(
            name=record.name,
            attrs=dict(record.attrs),
            start=record.start,
            end=record.end if record.end is not None else record.start,
            measures=dict(record.measures),
            status=record.status,
        )
        nodes[record.span_id] = node
        parent = (
            nodes.get(record.parent_id) if record.parent_id is not None else None
        )
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots


# ----------------------------------------------------------------------
# context-local activation
# ----------------------------------------------------------------------
_tracer: ContextVar[Tracer | None] = ContextVar("repro_obs_tracer", default=None)


def span(name: str, **attrs: Any):
    """Open a span under the context's tracer (no-op when disabled).

    Usage::

        with span("ctmc.solve", net=net.name) as sp:
            ...
            sp.set(states=n)   # runtime measurement

    ``attrs`` identify the work and end up in normalized trees; use
    :meth:`set` for anything measured rather than chosen.
    """
    tracer = _tracer.get()
    if tracer is None:
        return NULL_SPAN
    return tracer.start(name, attrs)


def tracing_active() -> bool:
    """Whether a tracer is installed in the current context."""
    return _tracer.get() is not None


def current_tracer() -> Tracer | None:
    """The context's tracer, or ``None`` when tracing is disabled."""
    return _tracer.get()


@contextmanager
def tracing(clock: "_clockmod.Clock | None" = None):
    """Enable tracing for the dynamic extent of the block.

    Yields the :class:`Tracer` collecting the spans; ``clock`` overrides
    the process-wide clock for this tracer's timestamps.
    """
    tracer = Tracer(clock=clock)
    token = _tracer.set(tracer)
    try:
        yield tracer
    finally:
        _tracer.reset(token)


def trace_settings() -> dict[str, Any]:
    """Picklable tracing policy for worker processes (enabled + clock)."""
    return {
        "enabled": tracing_active(),
        "clock": _clockmod.clock_settings(),
    }
