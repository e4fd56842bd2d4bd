"""Structured JSONL event stream for sweep, cache, and monitor lifecycle.

Where spans answer *where did the time go* after a run, events answer
*what is happening right now*: a context-local :class:`EventStream`
receives one dict per lifecycle moment and — when given a sink —
writes it as a JSON line immediately (flushed per event), so a watcher
can ``tail -f`` the file while a long sweep executes.  The CLI wires
this to ``--events out.jsonl`` on every sweep-running subcommand.
The same class is the service's log: ``repro serve`` keeps one bounded
stream behind ``GET /events`` (and its ``--events`` file) and one per
sweep job, which HTTP followers tail by ``seq`` cursor.

Emitted events, in pipeline order:

* ``sweep.plan`` — a :class:`~repro.engine.sweep.SweepPlan` starts
  (``label``, ``points``, ``jobs``, and ``chunks`` when parallel);
* ``sweep.point.start`` / ``sweep.point.done`` — one sweep point's
  lifecycle (``index``);
* ``sweep.worker.merge`` — the parent folded one worker chunk's
  results back in (``process``, ``start``, ``stop``, ``points``);
* ``cache.hit`` / ``cache.miss`` / ``cache.reject`` — engine-cache
  traffic (``lookup``: ``reward``/``solution``/``structure``;
  ``tier``, ``reason``);
* ``monitor.flag`` / ``monitor.unflag`` / ``monitor.rejuvenation`` —
  the runtime monitor's posterior crossings and issued rejuvenations
  (``module``, ``time``).

Determinism contract (the event analogue of attrs-vs-measures): the
**lifecycle subsequence** — ``sweep.plan`` / ``sweep.point.start`` /
``sweep.point.done`` with volatile fields dropped — is identical for
every ``jobs`` value, because workers capture their points' events
locally and the parent replays them in point order.
:func:`normalize_events` extracts exactly that subsequence; under a
:class:`~repro.obs.clock.ManualClock` even the raw stream is
byte-reproducible run-to-run for a fixed ``jobs``.  Cache and monitor
events stay in the stream but outside the contract: like span
measures, they may legitimately differ between serial and parallel
runs (per-process cache state).

Like the tracer, the disabled path is free: with no stream installed,
:func:`emit` is a single ``ContextVar`` read.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import islice
from typing import IO, Any, Iterable

from repro.obs import clock as _clockmod

#: Events whose (jobs-independent) sequence is the determinism contract.
LIFECYCLE_EVENTS = ("sweep.plan", "sweep.point.start", "sweep.point.done")

#: Fields that may differ between execution modes: timestamps, worker
#: lanes, and the parallelism degree itself.
VOLATILE_FIELDS = ("ts", "jobs", "chunks", "process", "duration")


class EventStream:
    """The event log of one run, or of one server or job.

    Every appended event gets the next absolute sequence number
    (:attr:`seq` is the last one handed out).  With a ``limit`` only
    the newest ``limit`` events stay in memory; ``None`` keeps them all
    (every CLI and sweep stream).  Eviction never renumbers: a cursor
    is a ``seq``, and :meth:`since` resumes past it at whatever is
    still retained.  A ``sink`` receives every event as a JSON line,
    flushed per event, whether or not it is still retained.

    Followers park in :meth:`wait` until an append or :meth:`close`.
    An append wakes them only when someone is parked, so with no
    follower it stays O(1) and schedules nothing on the event loop.
    """

    def __init__(
        self,
        sink: IO[str] | None = None,
        clock: "_clockmod.Clock | None" = None,
        limit: int | None = None,
    ) -> None:
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.sink = sink
        self.clock = clock
        self.limit = limit
        self.seq = 0
        self.closed = False
        self._entries: deque[dict[str, Any]] = deque(maxlen=limit)
        self._wakeup: Any = None  # asyncio.Event while someone waits

    def snapshot(self) -> list[dict[str, Any]]:
        """The retained events, oldest first (a copy)."""
        return list(self._entries)

    @property
    def events(self) -> list[dict[str, Any]]:
        return self.snapshot()

    def _now(self) -> float:
        clock = self.clock
        return clock.now() if clock is not None else _clockmod.now()

    def emit(self, kind: str, **fields: Any) -> dict[str, Any]:
        """Record one event, stamped with the stream's clock."""
        event = {"event": kind, "ts": self._now(), **fields}
        self.append(event)
        return event

    def replay(self, events: Iterable[dict[str, Any]], **extra: Any) -> None:
        """Append externally captured events (a worker's), verbatim.

        Replayed events keep their original timestamps — they come from
        the worker's clock — and gain any ``extra`` fields (the sweep
        stamps the worker's chunk lane as ``process``).
        """
        for event in events:
            self.append({**event, **extra})

    def append(self, event: dict[str, Any]) -> None:
        """Log one already-stamped event under the next ``seq``."""
        self.seq += 1
        self._entries.append(event)
        if self.sink is not None:
            self.sink.write(json.dumps(event, sort_keys=True) + "\n")
            self.sink.flush()
        self._wake()

    def close(self) -> None:
        """Mark the log finished and wake every parked follower."""
        self.closed = True
        self._wake()

    def since(self, cursor: int) -> list[tuple[int, dict[str, Any]]]:
        """``(seq, event)`` pairs newer than ``cursor``, oldest first."""
        first = self.seq - len(self._entries) + 1
        skip = max(0, cursor - first + 1)
        return [
            (first + offset, event)
            for offset, event in enumerate(
                islice(self._entries, skip, None), skip
            )
        ]

    async def wait(
        self, cursor: int, timeout: float = 10.0
    ) -> list[tuple[int, dict[str, Any]]]:
        """Entries past ``cursor``; blocks until news, close, or timeout."""
        fresh = self.since(cursor)
        if fresh or self.closed:
            return fresh
        import asyncio  # deferred: only a live follower needs a loop

        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        try:
            await asyncio.wait_for(self._wakeup.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        return self.since(cursor)

    def _wake(self) -> None:
        wakeup = self._wakeup
        if wakeup is not None:
            self._wakeup = None
            wakeup.set()

    def to_jsonl(self) -> str:
        """One JSON object per retained event, in emission order."""
        return "\n".join(
            json.dumps(event, sort_keys=True) for event in self._entries
        )


# ----------------------------------------------------------------------
# context-local activation
# ----------------------------------------------------------------------
_stream: ContextVar[EventStream | None] = ContextVar(
    "repro_obs_events", default=None
)


def emit(kind: str, **fields: Any) -> None:
    """Emit onto the context's stream (no-op when none is installed)."""
    stream = _stream.get()
    if stream is None:
        return
    stream.emit(kind, **fields)


def events_active() -> bool:
    """Whether an event stream is installed in the current context."""
    return _stream.get() is not None


def current_stream() -> EventStream | None:
    """The context's event stream, or ``None`` when events are off."""
    return _stream.get()


@contextmanager
def event_stream(
    sink: IO[str] | None = None,
    clock: "_clockmod.Clock | None" = None,
):
    """Install a fresh :class:`EventStream` for the extent of the block."""
    stream = EventStream(sink=sink, clock=clock)
    token = _stream.set(stream)
    try:
        yield stream
    finally:
        _stream.reset(token)


@contextmanager
def open_event_stream(path: Any):
    """Stream events to ``path`` as live JSON Lines (the CLI's entry)."""
    with open(path, "w", encoding="utf-8") as sink:
        with event_stream(sink=sink) as stream:
            yield stream


def normalize_events(
    events: "Iterable[dict[str, Any] | str] | str",
) -> list[dict[str, Any]]:
    """The deterministic shape of a stream: lifecycle events only.

    Accepts event dicts, JSONL lines, or one JSONL blob.  Keeps the
    :data:`LIFECYCLE_EVENTS` subsequence and drops the
    :data:`VOLATILE_FIELDS` from each — what remains must be identical
    across ``jobs`` values (enforced by ``tests/obs/test_events.py``).
    """
    if isinstance(events, str):
        events = [line for line in events.splitlines() if line.strip()]
    normalized = []
    for event in events:
        if isinstance(event, str):
            event = json.loads(event)
        if event.get("event") not in LIFECYCLE_EVENTS:
            continue
        normalized.append(
            {
                key: value
                for key, value in event.items()
                if key not in VOLATILE_FIELDS
            }
        )
    return normalized
