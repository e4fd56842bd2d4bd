"""Deterministic parallel execution of sweep grids.

A :class:`SweepPlan` is a list of points — ``(fn, args)`` pairs sharing
one module-level function — executed either serially or across a
``ProcessPoolExecutor``.  Three properties make parallel runs safe to
substitute for serial ones:

* **deterministic chunking** — points are split into fixed, contiguous
  chunks computed from ``(len(points), jobs)`` only, never from timing;
* **ordered reassembly** — results are returned in point order no matter
  which worker finished first, so downstream reports are byte-identical
  to a serial run;
* **cache-policy replay** — the parent's solver-cache settings are
  shipped to every worker, so ``--no-cache`` (or a test's cache
  override) means the same thing in all processes.

Observability rides the same rails.  When the parent runs under
:func:`repro.obs.tracing`, every point executes inside an
``engine.sweep.point`` span: inline for serial runs, and through
:func:`run_captured` inside each worker for parallel runs.  That one
envelope — also behind the service's pooled solves and the batch
simulator's chunks — hands back each point's value, span records,
events and metrics snapshot; the parent grafts the per-point subtrees
under its ``engine.sweep`` span in point order and merges the metrics
(:meth:`Captured.absorb`), so ``jobs=4`` reassembles to the same
normalized trace tree (and the same counter totals) as ``jobs=1``.
The same holds for the :mod:`repro.obs.events` stream: the plan emits
``sweep.plan`` up front and ``sweep.point.start`` / ``sweep.point.done``
around every point — inline when serial, captured per point in workers
and replayed by the parent in point order (after a ``sweep.worker.merge``
marker per chunk), so the normalized lifecycle sequence is identical for
every ``jobs`` value.

The point function must be picklable (a module-level function), as must
every argument and result; the experiment runners keep their worker
functions in :mod:`repro.engine.tasks` for exactly this reason.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro.engine.cache import cache_settings, configure_cache
from repro.errors import ParameterError
from repro.obs import (
    clock_from_settings,
    clock_settings,
    current_tracer,
    registry_override,
    span,
    tracing,
    tracing_active,
)
from repro.obs.events import current_stream, event_stream, events_active
from repro.obs.events import emit as emit_event
from repro.obs.metrics import active_registry
from repro.obs.tracer import SpanRecord


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None/0 mean "all available CPUs"."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ParameterError(f"jobs must be >= 0 (0 = auto), got {jobs}")
    return jobs


def chunk_points(n_points: int, jobs: int, chunk_size: int | None = None) -> list[range]:
    """Contiguous index chunks; a pure function of its arguments.

    Default chunk size targets four chunks per worker so stragglers can
    be rebalanced, while keeping per-chunk dispatch overhead amortized.
    """
    if chunk_size is None:
        chunk_size = max(1, -(-n_points // (4 * jobs)))
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        range(start, min(start + chunk_size, n_points))
        for start in range(0, n_points, chunk_size)
    ]


@dataclass
class Captured:
    """One :func:`run_captured` call's value and telemetry (picklable).

    ``records``/``events`` are empty when the policy had that channel
    off; ``seconds`` is the call's duration on its own clock.
    """

    value: Any
    records: list[SpanRecord]
    events: list[dict[str, Any]]
    metrics: dict[str, Any]
    seconds: float

    def absorb(self, *, process: int, thread: int = 0) -> Any:
        """Fold the capture into the calling context; return its value.

        Spans land under the open span on lane ``(process, thread)``.
        Absorbing in point (or chunk) order keeps the reassembly
        independent of worker scheduling.
        """
        tracer = current_tracer()
        if tracer is not None:
            tracer.graft(self.records, process=process, thread=thread)
        stream = current_stream()
        if stream is not None:
            stream.replay(self.events, process=process)
        active_registry().merge(self.metrics)
        return self.value


def capture_policy() -> dict[str, Any]:
    """The calling context's observability policy, for :func:`run_captured`."""
    return {
        "clock": clock_settings(),
        "trace": tracing_active(),
        "events": events_active(),
    }


def run_captured(
    fn: Callable[..., Any],
    args: tuple,
    policy: dict[str, Any],
    name: str,
    **attrs: Any,
) -> Captured:
    """Run ``fn(*args)`` under its own clock, registry, tracer and stream.

    The one capture path for pooled work: sweep points, served solves
    and batch chunks.  ``policy`` is picklable (see
    :func:`capture_policy`).  The clock is fresh — a manual one
    restarts at its start — so the capture depends only on the call,
    never on what else the worker ran; the call runs in a root span
    ``name``/``attrs`` when tracing.  Context variables cross neither
    ``run_in_executor`` nor a process boundary, hence all of it is
    installed here, inside the worker.
    """
    clock = clock_from_settings(policy["clock"])
    trace = tracing(clock=clock) if policy["trace"] else nullcontext()
    events = event_stream(clock=clock) if policy["events"] else nullcontext()
    with registry_override() as registry, trace as tracer, events as stream:
        started = clock.now()
        with span(name, **attrs):
            value = fn(*args)
        seconds = max(0.0, clock.now() - started)
    return Captured(
        value=value,
        records=tracer.records if tracer is not None else [],
        events=stream.events if stream is not None else [],
        metrics=registry.snapshot(),
        seconds=seconds,
    )


def _sweep_point(fn: Callable[..., Any], index: int, args: tuple) -> Any:
    emit_event("sweep.point.start", index=index)
    value = fn(*args)
    emit_event("sweep.point.done", index=index)
    return value


def _run_chunk(
    fn: Callable[..., Any],
    chunk: list[tuple[int, tuple]],
    settings: dict[str, Any],
    policy: dict[str, Any],
) -> list[Captured]:
    """Worker entry: replay the parent's cache policy, capture each point."""
    configure_cache(**settings)
    return [
        run_captured(
            _sweep_point, (fn, index, args), policy, "engine.sweep.point",
            index=index,
        )
        for index, args in chunk
    ]


@dataclass
class SweepPlan:
    """An ordered grid of calls to one picklable function.

    Build with :meth:`over` (one argument per point) or by passing
    ``points`` as argument tuples directly, then execute with
    :meth:`run`.  Results always come back in point order.
    """

    fn: Callable[..., Any]
    points: list[tuple] = field(default_factory=list)
    label: str = ""

    def __post_init__(self) -> None:
        self.points = [
            args if isinstance(args, tuple) else (args,) for args in self.points
        ]

    @classmethod
    def over(
        cls,
        fn: Callable[..., Any],
        values: Iterable[Any],
        *,
        label: str = "",
    ) -> "SweepPlan":
        """A plan calling ``fn(value)`` for each value."""
        return cls(fn=fn, points=[(value,) for value in values], label=label)

    def add(self, *args: Any) -> int:
        """Append one point; returns its index (for later lookup)."""
        self.points.append(args)
        return len(self.points) - 1

    def __len__(self) -> int:
        return len(self.points)

    def run(
        self,
        *,
        jobs: int | None = 1,
        chunk_size: int | None = None,
    ) -> list[Any]:
        """Execute every point and return the results in point order.

        ``jobs <= 1`` runs serially in-process (the reference path);
        anything larger fans the chunks out over a process pool.  Both
        paths produce identical results for pure point functions — and,
        under tracing, identical normalized span trees.
        """
        jobs = resolve_jobs(jobs)
        label = self.label or getattr(self.fn, "__name__", "sweep")
        if jobs <= 1 or len(self.points) <= 1:
            emit_event(
                "sweep.plan", label=label, points=len(self.points), jobs=1
            )
            with span("engine.sweep", label=label, points=len(self.points)) as sp:
                sp.set(jobs=1)
                results = []
                for index, args in enumerate(self.points):
                    with span("engine.sweep.point", index=index):
                        results.append(_sweep_point(self.fn, index, args))
                return results

        chunks = chunk_points(len(self.points), jobs, chunk_size)
        settings = cache_settings()
        policy = capture_policy()
        results: list[Any] = [None] * len(self.points)
        workers = min(jobs, len(chunks))
        emit_event(
            "sweep.plan",
            label=label,
            points=len(self.points),
            jobs=jobs,
            chunks=len(chunks),
        )
        with span("engine.sweep", label=label, points=len(self.points)) as sp:
            sp.set(jobs=jobs, chunks=len(chunks))
            with ProcessPoolExecutor(max_workers=workers) as executor:
                futures = [
                    executor.submit(
                        _run_chunk,
                        self.fn,
                        [(i, self.points[i]) for i in chunk],
                        settings,
                        policy,
                    )
                    for chunk in chunks
                ]
                # chunks are contiguous and ascending, so walking them in
                # submission order grafts point subtrees, replays point
                # events and merges metrics in point order — independent
                # of which worker finished first.
                for process, (chunk, future) in enumerate(
                    zip(chunks, futures), 1
                ):
                    captures = future.result()
                    emit_event(
                        "sweep.worker.merge",
                        process=process,
                        start=chunk.start,
                        stop=chunk.stop,
                        points=len(chunk),
                    )
                    for index, captured in zip(chunk, captures):
                        results[index] = captured.absorb(
                            process=process, thread=index
                        )
        return results


def sweep(
    fn: Callable[..., Any],
    values: Iterable[Any],
    *,
    jobs: int | None = 1,
) -> list[Any]:
    """One-shot convenience: ``SweepPlan.over(fn, values).run(jobs=...)``."""
    return SweepPlan.over(fn, values).run(jobs=jobs)
