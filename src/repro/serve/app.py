"""The reliability service: solve/verify/sweep over HTTP+JSONL.

:class:`ReliabilityService` exposes the evaluation pipeline as a small
asyncio job server:

* ``POST /v1/solve`` / ``POST /v1/verify`` — synchronous evaluations of
  one request spec (see :func:`repro.serve.worker.resolve_spec`);
* ``POST /v1/sweep`` — an async job sweeping one parameter over a value
  grid; answers ``202`` with a job id for ``GET /v1/jobs/{id}`` polling
  and ``GET /v1/jobs/{id}/events`` JSONL streaming (live tail-follow,
  ``?follow=0`` for a snapshot);
* ``GET /metrics`` — the service registry as OpenMetrics exposition
  text (:func:`repro.obs.export.openmetrics`);
* ``GET /healthz`` — liveness plus queue/job occupancy.

Three mechanisms keep it standing under heavy traffic:

* **request coalescing** — work is keyed by the request kind and the
  resolved spec (:func:`resolve_spec`), so every spelling of one model
  is one key and the event loop never builds a net; N identical
  in-flight requests share one solve and all receive the
  digest-verified result (``cache`` field: one ``miss``, N-1
  ``coalesced``, later arrivals ``hit``);
* **back-pressure** — solver work beyond ``queue_limit`` in-flight
  computations (and sweep jobs beyond ``max_jobs`` live jobs) answers
  ``503`` + ``Retry-After`` instead of queueing unboundedly, and
  per-client token buckets answer ``429`` when a client exceeds its
  request rate;
* **non-blocking dispatch** — solver work runs on a
  ``ProcessPoolExecutor`` (workers replay the parent's cache policy,
  exactly like :mod:`repro.engine.sweep` workers), so the event loop
  only ever parses requests, consults caches, and awaits futures.

Every response carries the service's :class:`~repro.obs.manifest.RunManifest`
and a SHA-256 digest over the canonical result JSON — the serving
analogue of the engine cache's verified entries.
"""

from __future__ import annotations

import asyncio
import functools
import os
from collections import OrderedDict
from collections.abc import Hashable
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

from repro import __version__
from repro.engine.cache import cache_settings, configure_cache
from repro.engine.sweep import capture_policy, resolve_jobs, run_captured
from repro.errors import ReproError
from repro.obs import clock as _clockmod
from repro.obs.events import EventStream
from repro.obs.export import chrome_trace, openmetrics
from repro.obs.manifest import collect_manifest
from repro.obs.metrics import MetricsRegistry, active_registry
from repro.obs.watch import WatchConfig, Watcher
from repro.perception.parameters import SWEEPABLE
from repro.serve.coalesce import Coalescer
from repro.serve.http import (
    ProtocolError,
    Request,
    Response,
    read_request,
    write_response,
)
from repro.serve.jobs import Job, JobStore
from repro.serve.monitorview import monitor_snapshot
from repro.serve.ratelimit import RateLimiter
from repro.serve.trace import PointTrace, TraceStore, assemble_trace
from repro.serve.worker import (
    PARAMETER_KEYS,
    WORKERS,
    SpecError,
    resolve_spec,
    result_digest,
)

#: Parameters a sweep job may vary: the spec keys of ``SWEEPABLE``.
SWEEPABLE_KEYS = tuple(
    key for key, attribute in PARAMETER_KEYS.items() if attribute in SWEEPABLE
)

_OPENMETRICS_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: Completed results kept per process for cache hits.
RESULT_CACHE_SIZE = 4096
#: Finished request and job traces kept for ``GET /trace/{id}``.
TRACE_RETENTION = 64
#: Server-wide events kept in memory for ``GET /events`` (the
#: ``--events`` file still receives every one).
EVENT_LOG_LIMIT = 4096

#: Fixed route labels for the per-endpoint SLO latency histograms
#: (``serve.endpoint.<label>.seconds``); prefix routes map below.
_ENDPOINT_LABELS = {
    "/healthz": "healthz",
    "/metrics": "metrics",
    "/monitor": "monitor",
    "/events": "events",
    "/alerts": "alerts",
    "/v1/solve": "solve",
    "/v1/verify": "verify",
    "/v1/sweep": "sweep",
}


def _endpoint_label(path: str) -> str:
    """The bounded-cardinality histogram label of a request path."""
    label = _ENDPOINT_LABELS.get(path)
    if label is not None:
        return label
    if path.startswith("/v1/jobs/"):
        return "jobs"
    if path.startswith("/trace/"):
        return "trace"
    return "other"


class BackPressure(Exception):
    """The service is at capacity; carries the suggested retry delay."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class ServeConfig:
    """Tunables of one service instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; start() reports the bound port
    workers: int | None = None  # None/0 = all CPUs
    executor: str = "process"  # "process" | "thread"
    queue_limit: int = 64  # in-flight solver computations before 503
    max_jobs: int = 16  # live async jobs before 503
    rate: float = 0.0  # per-client requests/s (0 = unlimited)
    burst: float | None = None  # bucket capacity (default 2 * rate)
    events: str | None = None  # JSONL event-stream file (like --events)
    watch: bool = True  # run the alert watcher over the event stream
    slo_latency: float = 0.5  # request latency budget (s) for SLO burn
    slo_objective: float = 0.99  # fraction of requests within the budget

    def __post_init__(self) -> None:
        if self.executor not in ("process", "thread"):
            raise ValueError(
                f"executor must be 'process' or 'thread', got {self.executor!r}"
            )
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.slo_latency <= 0:
            raise ValueError(
                f"slo_latency must be positive, got {self.slo_latency}"
            )
        if not 0.0 < self.slo_objective < 1.0:
            raise ValueError(
                f"slo_objective must lie in (0, 1), got {self.slo_objective}"
            )


class ReliabilityService:
    """One server instance; create, ``start()``, ``stop()``."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        workers_table: "dict[str, Callable[[dict], dict]] | None" = None,
    ) -> None:
        self.config = config or ServeConfig()
        #: Worker functions by kind; tests inject doubles here (which
        #: requires ``executor='thread'`` — doubles don't pickle).
        self.workers_table = dict(workers_table or WORKERS)
        self.registry = MetricsRegistry()
        self.jobs = JobStore(max_live=self.config.max_jobs)
        self.coalescer = Coalescer()
        self.limiter = RateLimiter(self.config.rate, self.config.burst)
        self.manifest: dict[str, Any] = {}
        self.port: int | None = None
        self.traces = TraceStore(TRACE_RETENTION)
        #: The server-wide event log behind ``GET /events``; start()
        #: attaches the ``--events`` file as its sink.
        self.ring = EventStream(limit=EVENT_LOG_LIMIT)
        self.watcher: "Watcher | None" = None
        if self.config.watch:
            self.watcher = Watcher(
                WatchConfig(
                    slo_latency=self.config.slo_latency,
                    slo_objective=self.config.slo_objective,
                )
            )
        self.monitor = None  # attach_monitor() installs a controller
        self._monitor_registry: MetricsRegistry | None = None
        self._results: OrderedDict[Hashable, dict[str, Any]] = OrderedDict()
        self._pending = 0
        self._request_serial = 0
        self._executor: ProcessPoolExecutor | ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._job_tasks: set[asyncio.Task] = set()

    def attach_monitor(
        self, controller: Any, *, registry: MetricsRegistry | None = None
    ) -> None:
        """Expose a co-hosted :class:`MonitorController` via ``/monitor``.

        ``registry`` names where the controller's ``monitor.*`` metrics
        land (it writes to the context-local obs registry, *not* the
        service's own); defaults to the process-wide active registry.
        """
        self.monitor = controller
        self._monitor_registry = registry

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind, spin up the worker pool, and return ``(host, port)``."""
        workers = resolve_jobs(self.config.workers)
        if self.config.executor == "process":
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                # workers replay the parent's cache policy (like sweeps)
                initializer=functools.partial(
                    configure_cache, **cache_settings()
                ),
            )
            # fork the pool before any socket opens: a worker forked on
            # a request inherits, and holds open, that client's socket
            await asyncio.get_running_loop().run_in_executor(
                self._executor, os.getpid
            )
        else:
            self._executor = ThreadPoolExecutor(max_workers=workers)
        self.manifest = collect_manifest(
            experiment="serve",
            jobs=workers,
            detectors=(
                self.watcher.certificates() if self.watcher is not None else ()
            ),
        ).as_dict()
        if self.config.events:
            self.ring.sink = open(self.config.events, "w", encoding="utf-8")
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        self._emit("serve.start", host=self.config.host, port=self.port)
        return self.config.host, self.port

    async def stop(self) -> None:
        """Stop accepting, cancel jobs, and tear the pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._job_tasks):
            task.cancel()
        if self._job_tasks:
            await asyncio.gather(*self._job_tasks, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        if self.ring.sink is not None:
            self.ring.sink.close()
            self.ring.sink = None
        self.ring.close()

    async def run_forever(self) -> None:
        """``start()`` then serve until cancelled (the CLI entry)."""
        await self.start()
        await self.serve_until_cancelled()

    async def serve_until_cancelled(self) -> None:
        """Serve an already-started instance; always tears down."""
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    def _emit(self, kind: str, **fields: Any) -> None:
        self._forward_event({"event": kind, "ts": _clockmod.now(), **fields})

    def _forward_event(self, event: dict[str, Any]) -> None:
        """One already-stamped event into the server's event log.

        Also the ``Job.on_event`` hook, so job lifecycle events reach
        ``GET /events`` and the ``--events`` file alongside their own
        per-job log.  When the watcher is enabled every forwarded
        event feeds it too, and any alerts it raises re-enter this path
        (the watcher skips ``alert.*``, so there is no feedback loop).
        """
        self.ring.append(event)
        if self.watcher is not None:
            for alert in self.watcher.feed_event(event):
                self._record_alert(alert)

    def _record_alert(self, alert: dict[str, Any]) -> None:
        """Count, gauge, and re-emit one alert lifecycle event."""
        suffix = alert["event"].rsplit(".", 1)[1]  # pending/firing/resolved
        self.registry.counter(f"serve.alerts.{suffix}").inc()
        counts = self.watcher.log.counts()
        self.registry.gauge("serve.alerts.active").set(counts["active"])
        self._emit(
            alert["event"],
            **{key: value for key, value in alert.items() if key != "event"},
        )

    # ------------------------------------------------------------------
    # connection loop
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) else ""
        try:
            while True:
                try:
                    request = await read_request(reader, peer=peer)
                except ProtocolError as error:
                    response = Response.error(error.status, str(error))
                    response.close = True
                    await write_response(writer, response)
                    return
                if request is None:
                    return
                started = _clockmod.now()
                response = await self._dispatch(request)
                if isinstance(response, EventStream):
                    await self._stream_events(writer, response)
                    return
                elapsed = max(0.0, _clockmod.now() - started)
                self.registry.histogram("serve.request.seconds").observe(
                    elapsed
                )
                self.registry.histogram(
                    f"serve.endpoint.{_endpoint_label(request.path)}.seconds"
                ).observe(elapsed)
                self.registry.counter(
                    f"serve.responses.{response.status}"
                ).inc()
                response.close = response.close or not request.keep_alive
                await write_response(writer, response)
                if response.close:
                    return
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            return
        except asyncio.CancelledError:
            return  # teardown: a cancelled handler is a finished handler
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _stream_events(
        self, writer: asyncio.StreamWriter, log: EventStream
    ) -> None:
        """Write a log's events as EOF-framed JSONL until it closes."""
        import json

        response = Response(content_type="application/jsonl")
        writer.write(response.head_bytes(content_length=None))
        await writer.drain()
        cursor = 0
        while True:
            entries = await log.wait(cursor)
            if not entries and log.closed:
                return
            for cursor, event in entries:
                writer.write(
                    (json.dumps(event, sort_keys=True) + "\n").encode()
                )
            await writer.drain()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Request) -> "Response | EventStream":
        self.registry.counter("serve.requests").inc()
        path = request.path
        try:
            if path == "/healthz":
                return self._require_get(request) or self._healthz()
            if path == "/metrics":
                return self._require_get(request) or self._metrics()
            if path == "/monitor":
                return self._require_get(request) or self._monitor_endpoint()
            if path == "/events":
                return self._require_get(request) or self._events_endpoint(
                    request, self.ring
                )
            if path == "/alerts":
                return self._require_get(request) or self._alerts_endpoint(
                    request
                )
            if path.startswith("/trace/"):
                return self._require_get(request) or self._trace_endpoint(
                    request
                )
            if path == "/v1/solve":
                return await self._evaluation_endpoint(request, "solve")
            if path == "/v1/verify":
                return await self._evaluation_endpoint(request, "verify")
            if path == "/v1/sweep":
                return self._sweep_endpoint(request)
            if path.startswith("/v1/jobs/"):
                return self._jobs_endpoint(request)
            return Response.error(404, f"no route for {path}")
        except ProtocolError as error:
            return Response.error(error.status, str(error))
        except Exception as error:  # defensive: a handler bug must not
            # kill the connection loop silently
            self.registry.counter("serve.errors.internal").inc()
            return Response.error(500, f"{type(error).__name__}: {error}")

    @staticmethod
    def _require_get(request: Request) -> Response | None:
        if request.method != "GET":
            return Response.error(405, f"{request.path} is GET-only")
        return None

    def _healthz(self) -> Response:
        return Response.json(
            {
                "status": "ok",
                "version": __version__,
                "inflight": self.coalescer.leader_count(),
                "pending": self._pending,
                "queue_limit": self.config.queue_limit,
                "jobs": self.jobs.describe(),
                "results_cached": len(self._results),
            }
        )

    def _metrics(self) -> Response:
        return Response(
            body=openmetrics(self.registry).encode(),
            content_type=_OPENMETRICS_TYPE,
        )

    def _monitor_endpoint(self) -> Response:
        registry = self._monitor_registry or active_registry()
        return Response.json(monitor_snapshot(registry, self.monitor))

    @staticmethod
    def _events_endpoint(
        request: Request, log: EventStream
    ) -> "Response | EventStream":
        """A log as JSONL: a live tail, or its snapshot with ``?follow=0``.

        Returning the log itself tells the connection loop to tail it.
        """
        if request.query.get("follow", "1") != "0":
            return log
        import json

        body = "".join(
            json.dumps(event, sort_keys=True) + "\n"
            for event in log.snapshot()
        )
        return Response(body=body.encode(), content_type="application/jsonl")

    def _alerts_endpoint(self, request: Request) -> Response:
        """The watcher's state: active alerts + event tail with cursors.

        ``?since=N`` returns only alert events with ``seq > N`` (seqs
        are absolute and monotone, like the event log's); ``cursor``
        in the response is the highest seq included, ready to pass back.
        """
        if self.watcher is None:
            return Response.json(
                {
                    "enabled": False,
                    "active": [],
                    "counts": {},
                    "events": [],
                    "cursor": 0,
                }
            )
        since_raw = request.query.get("since", "0")
        try:
            since = int(since_raw)
        except ValueError:
            return Response.error(400, f"since must be an integer, got {since_raw!r}")
        events = self.watcher.log.events_since(since)
        return Response.json(
            {
                "enabled": True,
                "config": self.watcher.config.as_dict(),
                "certificates": self.watcher.certificates(),
                "active": [
                    alert.as_dict() for alert in self.watcher.log.active()
                ],
                "counts": self.watcher.log.counts(),
                "events": events,
                "cursor": events[-1]["seq"] if events else self.watcher.log.seq,
            }
        )

    def _trace_endpoint(self, request: Request) -> Response:
        trace_id = request.path[len("/trace/") :]
        stored = self.traces.get(trace_id)
        if stored is None:
            hint = (
                "; the job exists but has produced no trace yet"
                if self.jobs.get(trace_id) is not None
                else ""
            )
            return Response.error(404, f"no trace for {trace_id!r}{hint}")
        records = assemble_trace(stored.name, stored.attrs, stored.points)
        payload = chrome_trace(
            records, unit=stored.unit, manifest=self.manifest
        )
        return Response.json(payload)

    @staticmethod
    def _trace_unit() -> str:
        """Clock unit stamped into stored traces (manual clock -> ticks)."""
        kind = _clockmod.clock_settings().get("kind")
        return "ticks" if kind == "manual" else "s"

    # ------------------------------------------------------------------
    # evaluation endpoints
    # ------------------------------------------------------------------
    async def _evaluation_endpoint(
        self, request: Request, kind: str
    ) -> Response:
        if request.method != "POST":
            return Response.error(405, f"{request.path} is POST-only")
        denial = self._rate_limit(request)
        if denial is not None:
            return denial
        spec = request.json()
        point: PointTrace | None = None
        if request.query.get("trace") not in (None, "", "0"):
            self._request_serial += 1
            trace_id = f"req-{self._request_serial:06d}"
            point = PointTrace(index=0)
        try:
            payload = await self._evaluate(kind, spec, point=point)
        except SpecError as error:
            return Response.error(400, str(error))
        except BackPressure as error:
            self.registry.counter("serve.backpressure").inc()
            self._emit("serve.backpressure", op=kind)
            return Response.error(
                503,
                str(error),
                retry_after=error.retry_after,
                headers={"Retry-After": f"{error.retry_after:.3f}"},
            )
        except ReproError as error:
            return Response.error(422, f"{type(error).__name__}: {error}")
        if point is not None:
            point.cache = payload["cache"]
            self.traces.create(
                trace_id,
                name=f"serve.{kind}",
                attrs={"request": trace_id, "kind": kind},
                unit=self._trace_unit(),
                points=1,
            ).points[0] = point
            payload = {
                **payload,
                "request": trace_id,
                "trace": f"/trace/{trace_id}",
            }
        return Response.json(payload)

    def _rate_limit(self, request: Request) -> Response | None:
        retry_after = self.limiter.check(request.client_key())
        if retry_after <= 0.0:
            return None
        self.registry.counter("serve.ratelimited").inc()
        self._emit("serve.ratelimited", client=request.client_key())
        return Response.error(
            429,
            "client rate limit exceeded",
            retry_after=retry_after,
            headers={"Retry-After": f"{retry_after:.3f}"},
        )

    async def _evaluate(
        self,
        kind: str,
        spec: dict[str, Any],
        *,
        point: PointTrace | None = None,
    ) -> dict[str, Any]:
        """The shared solve path: result cache -> coalescer -> executor.

        Both caches key on ``(kind, *resolve_spec(spec))``: equal for
        every spelling of one model, and cheap enough for the event
        loop, which never builds a net; the response's ``fingerprint``
        is the one the worker's result carries.  The executing call
        runs the worker through ``run_captured`` and folds back what it
        measured: metrics into the service registry, events
        (``cache.*``) into the server log before ``serve.solve.done``,
        restamped on the server's clock.  A
        ``point`` (when given) requests span capture: if this call
        executes the work, the worker's records and queue/compute split
        land in it; cache hits and coalesced followers leave it empty.
        """
        self.registry.counter(f"serve.{kind}.requests").inc()
        key = (kind, *resolve_spec(spec))

        cached = self._results.get(key)
        if cached is not None:
            self._results.move_to_end(key)
            self.registry.counter("serve.cache.hits").inc()
            return self._respond(kind, "hit", cached)

        if (
            not self.coalescer.is_inflight(key)
            and self._pending >= self.config.queue_limit
        ):
            raise BackPressure(
                f"{self._pending} computations in flight "
                f"(queue_limit {self.config.queue_limit})",
                retry_after=1.0,
            )

        async def compute() -> dict[str, Any]:
            # the server's clock; its log always takes the worker's events
            policy = {
                **capture_policy(), "trace": point is not None, "events": True
            }
            self._pending += 1
            self.registry.counter("serve.solve.executed").inc()
            self._emit("serve.solve.start", op=kind)
            started = _clockmod.now()
            try:
                captured = await asyncio.get_running_loop().run_in_executor(
                    self._executor,
                    functools.partial(run_captured, kind=kind),
                    self.workers_table[kind],
                    (spec,),
                    policy,
                    "serve.compute",
                )
            finally:
                self._pending -= 1
            elapsed = max(0.0, _clockmod.now() - started)
            self.registry.merge(captured.metrics)
            for event in captured.events:
                self._forward_event({**event, "ts": _clockmod.now()})
            result = captured.value
            compute_seconds = captured.seconds
            queue_seconds = max(0.0, elapsed - compute_seconds)
            self.registry.histogram("serve.solve.seconds").observe(elapsed)
            self.registry.histogram(f"serve.{kind}.compute.seconds").observe(
                compute_seconds
            )
            self.registry.histogram(f"serve.{kind}.queue.seconds").observe(
                queue_seconds
            )
            if point is not None:
                point.records = captured.records
                point.compute_seconds = compute_seconds
                point.queue_seconds = queue_seconds
            self._emit(
                "serve.solve.done",
                op=kind,
                fingerprint=result.get("fingerprint"),
                seconds=elapsed,
            )
            self._remember(key, result)
            return result

        result, coalesced = await self.coalescer.run(key, compute)
        source = "coalesced" if coalesced else "miss"
        self.registry.counter(f"serve.{source}").inc()
        return self._respond(kind, source, result)

    def _remember(self, key: Hashable, result: dict[str, Any]) -> None:
        self._results[key] = result
        self._results.move_to_end(key)
        while len(self._results) > RESULT_CACHE_SIZE:
            self._results.popitem(last=False)

    def _respond(
        self, kind: str, source: str, result: dict[str, Any]
    ) -> dict[str, Any]:
        """The response body; emits ``serve.cache.hit``/``miss``/``coalesced``."""
        fingerprint = result.get("fingerprint")
        event = "serve.cache.hit" if source == "hit" else f"serve.{source}"
        self._emit(event, op=kind, fingerprint=fingerprint)
        return {
            "kind": kind,
            "cache": source,
            "fingerprint": fingerprint,
            "result": result,
            "digest": result_digest(result),
            "manifest": self.manifest,
        }

    # ------------------------------------------------------------------
    # async sweep jobs
    # ------------------------------------------------------------------
    def _sweep_endpoint(self, request: Request) -> Response:
        if request.method != "POST":
            return Response.error(405, "/v1/sweep is POST-only")
        denial = self._rate_limit(request)
        if denial is not None:
            return denial
        spec = request.json()
        if not isinstance(spec, dict):
            return Response.error(400, "sweep spec must be a JSON object")
        parameter = spec.get("parameter")
        values = spec.get("values")
        if parameter not in SWEEPABLE_KEYS:
            return Response.error(
                400,
                f"sweep 'parameter' must be one of {', '.join(SWEEPABLE_KEYS)}",
            )
        if not isinstance(values, list) or not values:
            return Response.error(400, "sweep 'values' must be a non-empty list")
        try:
            values = [float(value) for value in values]
        except (TypeError, ValueError):
            return Response.error(400, "sweep 'values' must be numbers")
        base = {
            key: value
            for key, value in spec.items()
            if key not in ("parameter", "values")
        }
        # Fail malformed specs at admission, not inside the job.
        for value in values:
            try:
                resolve_spec({**base, parameter: value})
            except SpecError as error:
                return Response.error(400, str(error))

        job = self.jobs.create("sweep", spec)
        if job is None:
            self.registry.counter("serve.backpressure").inc()
            self._emit("serve.backpressure", op="sweep")
            # scale the suggested retry with occupancy: a full table of
            # long sweeps deserves a longer back-off than a blip
            retry_after = max(
                1.0, self.jobs.live_count() / self.jobs.max_live
            )
            return Response.error(
                503,
                f"{self.jobs.live_count()} live jobs (max_jobs "
                f"{self.jobs.max_live})",
                retry_after=retry_after,
                headers={"Retry-After": f"{retry_after:.3f}"},
            )
        job.on_event = self._forward_event
        self.registry.counter("serve.jobs.created").inc()
        task = asyncio.get_running_loop().create_task(
            self._run_sweep_job(job, base, parameter, values)
        )
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        return Response.json(
            {
                "job": job.id,
                "status": job.status,
                "poll": f"/v1/jobs/{job.id}",
                "events": f"/v1/jobs/{job.id}/events",
                "trace": f"/trace/{job.id}",
            },
            status=202,
        )

    async def _run_sweep_job(
        self,
        job: Job,
        base: dict[str, Any],
        parameter: str,
        values: list[float],
    ) -> None:
        job.start()
        job.emit(
            "sweep.plan",
            label=f"serve:{parameter}",
            points=len(values),
            jobs=resolve_jobs(self.config.workers),
        )
        semaphore = asyncio.Semaphore(resolve_jobs(self.config.workers))
        reliabilities: list[float | None] = [None] * len(values)
        stored = self.traces.create(
            job.id,
            name="serve.sweep",
            attrs={"job": job.id, "parameter": parameter, "points": len(values)},
            unit=self._trace_unit(),
            points=len(values),
        )

        async def point(index: int, value: float) -> None:
            async with semaphore:
                job.emit("sweep.point.start", index=index)
                trace = PointTrace(index=index, attrs={"value": value})
                payload = await self._evaluate(
                    "solve", {**base, parameter: value}, point=trace
                )
                reliability = payload["result"]["expected_reliability"]
                reliabilities[index] = reliability
                trace.cache = payload["cache"]
                # indexed assignment, not append: points land in grid
                # order no matter how the semaphore scheduled them
                stored.points[index] = trace
                job.emit(
                    "sweep.point.done",
                    index=index,
                    value=value,
                    expected_reliability=reliability,
                    cache=payload["cache"],
                )

        try:
            await asyncio.gather(
                *(point(i, value) for i, value in enumerate(values))
            )
        except asyncio.CancelledError:
            job.fail("cancelled at shutdown")
            raise
        except Exception as error:
            self.registry.counter("serve.jobs.failed").inc()
            job.fail(f"{type(error).__name__}: {error}")
            return
        best = max(range(len(values)), key=lambda i: reliabilities[i])
        self.registry.counter("serve.jobs.done").inc()
        job.finish(
            {
                "parameter": parameter,
                "values": values,
                "reliabilities": reliabilities,
                "argmax": {
                    "value": values[best],
                    "expected_reliability": reliabilities[best],
                },
                "manifest": self.manifest,
            }
        )

    def _jobs_endpoint(self, request: Request) -> "Response | EventStream":
        if request.method != "GET":
            return Response.error(405, "job endpoints are GET-only")
        rest = request.path[len("/v1/jobs/") :]
        job_id, _, tail = rest.partition("/")
        job = self.jobs.get(job_id)
        if job is None:
            return Response.error(404, f"no such job {job_id!r}")
        if not tail:
            return Response.json(job.describe())
        if tail == "events":
            return self._events_endpoint(request, job.log)
        return Response.error(404, f"no route for {request.path}")
