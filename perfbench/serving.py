"""The ``solve-cold`` workload against ``repro serve``, and the hot-path
probe of its traced run.

The service runs as its own process (``python -m repro serve --port 0
--workers 2``, no disk cache tier), so client and server never share an
event loop.  Clients speak to it through
:class:`repro.serve.client.Connection` on keep-alive connections.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import re
import selectors
import signal
import subprocess
import sys
import time

from repro.perception.evaluation import evaluate
from repro.serve.client import Connection, request
from repro.serve.worker import fingerprint_spec, resolve_spec, result_digest

from harness import (
    ROOT,
    Outcome,
    Spans,
    beyond,
    median,
    overhead,
    paired,
    percentile,
    process_tree,
    tree_peak_mib,
)
from layers import LayerCounts, layer_metrics, replay

HOST = "127.0.0.1"
WORKERS = 2

#: solve-cold shapes and their weight in one 45-spec cycle.  Every shape
#: is paper-scale; the weights put the median inside the N=8 r=1 block
#: and the 90th percentile inside the N=10 r=2 block of the latency
#: distribution, so both sit on many samples of one shape instead of on
#: the gap between two shapes, which keeps them steady from run to run.
COLD_SHAPES = (
    *(({"versions": n, "f": 1}, 1) for n in range(4, 11)),
    *(({"versions": n, "f": 2}, 1) for n in range(7, 11)),
    *(
        ({"versions": n, "rejuvenation": True, "r": 1}, 19 if n == 8 else 1)
        for n in range(6, 13)
    ),
    *(
        ({"versions": n, "rejuvenation": True, "r": 2}, 5 if n == 10 else 1)
        for n in range(8, 13)
    ),
)

#: The hot-path probe: the deployed configurations dashboards poll.
HOT_SHAPES = (
    {"preset": "four"},
    {"preset": "six"},
    {"versions": 5},
    {"versions": 7, "f": 2},
    {"versions": 8, "rejuvenation": True},
    {"versions": 9, "rejuvenation": True, "r": 2},
)

#: Table II means the cold generator jitters (Fig. 2 defaults).
TABLE2 = {"mttc": 1523.0, "mttf": 3000.0, "mttr": 3.0, "rejuvenation_time": 3.0}

HOT_RATE = 600.0  # open-loop arrivals per second (~1/9 of capacity)
HOT_PROBE_SECONDS = 4.0  # ~2400 requests, ~24 beyond the p99
COLD_CLIENTS = 2
HOT_CONNECTIONS = 2
SETUPS = 3  # server set-ups per run; setup_s is their median
REPLAY_SPECS = 45  # one full cold cycle is replayed in the traced run
SAMPLE_CHECKS = 4  # cold answers recomputed in-process per run
REQUEST_TIMEOUT = 60.0  # seconds before a request counts as failed


def _jitter(spec: dict, rng: random.Random) -> dict:
    out = dict(spec)
    keys = ("mttc", "mttf", "mttr") + (
        ("rejuvenation_time",) if spec.get("rejuvenation") else ()
    )
    for key in keys:
        out[key] = round(TABLE2[key] * rng.uniform(0.8, 1.25), 9)
    return out


def cold_specs(seed: int):
    """The endless, seeded solve-cold request sequence.

    Each cycle is a seeded permutation of the weighted shape list, each
    spec with its own jittered Table II rates, so no two nets match.
    """
    rng = random.Random(seed)
    cycle = [shape for shape, weight in COLD_SHAPES for _ in range(weight)]
    while True:
        rng.shuffle(cycle)
        for shape in cycle:
            yield _jitter(shape, rng)


def hot_set(seed: int) -> list[dict]:
    """The hot set: the presets plus seeded jittered neighbours."""
    rng = random.Random(seed)
    return [
        dict(shape) if "preset" in shape else _jitter(shape, rng)
        for shape in HOT_SHAPES
    ]


def digest(result: dict) -> str:
    """SHA-256 over the canonical result JSON, re-derived client-side."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
def server_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Server:
    """One ``repro serve`` process and its pool workers."""

    def __init__(self) -> None:
        self.process: "subprocess.Popen | None" = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", HOST, "--port", "0", "--workers", str(WORKERS),
            ],
            cwd=ROOT,
            env=server_env(),
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError("repro serve did not report its port")
        line = self.process.stdout.readline().decode()
        found = re.search(r"http://[^:]+:(\d+)", line)
        if found is None:
            raise RuntimeError(f"unexpected repro serve banner {line!r}")
        self.port = int(found.group(1))

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self, timeout: float = 30.0) -> None:
        """SIGINT (graceful pool shutdown), then kill what is left."""
        if self.process is None:
            return
        tree = process_tree(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        self.process.stdout.close()
        deadline = time.monotonic() + timeout
        for pid in tree[1:]:  # pool workers: reaped by the server or init
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.process = None


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rfind(b")") + 2 :][:1] != b"Z"


async def _healthy(port: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            response = await request(HOST, port, "GET", "/healthz")
            if response.status == 200:
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("repro serve never answered /healthz")
        await asyncio.sleep(0.01)


async def _solve_all(port: int, specs: list[dict]) -> list:
    """One request per spec, all concurrently (one connection each)."""
    async def one(spec):
        async with Connection(HOST, port) as connection:
            return await connection.request("POST", "/v1/solve", payload=spec)

    return await asyncio.gather(*(one(spec) for spec in specs))


def set_up(outcome: Outcome) -> Server:
    """Boot the server ``SETUPS`` times; keep the last one.

    One set-up is: launch, ``/healthz`` answers, and both pool workers
    spawned and warmed by two concurrent solves.
    """
    times = []
    for attempt in range(SETUPS):
        started = time.perf_counter()
        server = Server()
        warmers = [
            {"versions": 5, "mttc": 1000.0 + attempt, "mttr": 2.0 + i}
            for i in range(WORKERS)
        ]
        try:
            server.start()
            asyncio.run(_healthy(server.port))
            responses = asyncio.run(_solve_all(server.port, warmers))
            if any(response.status != 200 for response in responses):
                raise RuntimeError("set-up solves failed")
        except BaseException:
            server.stop()
            raise
        times.append(time.perf_counter() - started)
        if attempt < SETUPS - 1:
            server.stop()
    outcome.metrics["setup_s"] = median(times)
    outcome.note(
        "set-ups (s): " + ", ".join(f"{t:.4f}" for t in times)
        + f"; server pid {server.pid}, {WORKERS} pool workers, "
        "no disk cache tier"
    )
    return server


# ----------------------------------------------------------------------
# /metrics scraping
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*(?:\{[^}]*\})?)\s+(\S+)$")


async def scrape(port: int) -> dict[str, float]:
    response = await request(HOST, port, "GET", "/metrics")
    samples = {}
    for line in response.body.decode().splitlines():
        found = _SAMPLE.match(line)
        if found:
            samples[found.group(1)] = float(found.group(2))
    return samples


def _delta(after: dict, before: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


async def _rtt_ms(port: int, count: int = 200) -> float:
    times = []
    async with Connection(HOST, port) as connection:
        for _ in range(count):
            started = time.perf_counter()
            await connection.request("GET", "/healthz")
            times.append(time.perf_counter() - started)
    return 1000.0 * median(times)


def serve_layer_metrics(
    before: dict, after: dict, latencies: list[float], outcome: Outcome
) -> None:
    """serve.* metrics from two /metrics scrapes around the timed phase."""
    requests = _delta(after, before, "repro_serve_solve_requests_total")
    hits = _delta(after, before, "repro_serve_cache_hits_total")
    executed = _delta(after, before, "repro_serve_solve_compute_seconds_count")
    refused = _delta(after, before, "repro_serve_backpressure_total") + _delta(
        after, before, "repro_serve_ratelimited_total"
    )
    queue = _delta(after, before, "repro_serve_solve_queue_seconds_sum")
    compute = _delta(after, before, "repro_serve_solve_compute_seconds_sum")
    metrics = outcome.metrics
    metrics["serve.hit_ratio"] = hits / requests if requests else 0.0
    metrics["serve.refused"] = refused
    if executed:
        metrics["serve.queue_ms"] = 1000.0 * queue / executed
        metrics["serve.compute_ms"] = 1000.0 * compute / executed
    metrics["serve.overhead_ms"] = 1000.0 * (
        sum(latencies) / len(latencies) - (queue + compute) / requests
    )
    outcome.note(
        f"serve.hit_ratio = {hits:.0f} cache hits / {requests:.0f} solve "
        f"requests; {executed:.0f} solves executed; {refused:.0f} refused; "
        "serve.queue_ms and serve.compute_ms are means per executed solve "
        "from the /metrics sums (its quantiles are histogram bucket bounds); "
        "serve.overhead_ms = mean client latency - (queue + compute) per "
        "request"
    )


def _encode(payload: dict) -> None:
    """What the service does to answer: digest the result, encode JSON."""
    result_digest(payload["result"])
    json.dumps(payload).encode()


def _check_answer(response, outcome_failures: list, expected=None) -> "float | None":
    """The E[R] of one answer, or ``None`` (and a reason) if it fails."""
    if response is None:
        outcome_failures.append(f"no answer within {REQUEST_TIMEOUT:g} s")
        return None
    if response.status != 200:
        outcome_failures.append(f"status {response.status}")
        return None
    body = response.json()
    result = body["result"]
    if body.get("digest") != digest(result):
        outcome_failures.append("digest mismatch")
        return None
    value = result["expected_reliability"]
    if not 0.0 <= value <= 1.0:
        outcome_failures.append(f"E[R] {value} outside [0, 1]")
        return None
    if expected is not None and (
        value != expected["result"]["expected_reliability"]
        or body["digest"] != expected["digest"]
    ):
        outcome_failures.append("answer differs from its set-up value")
        return None
    return value


# ----------------------------------------------------------------------
# solve-cold
# ----------------------------------------------------------------------
def solve_cold(seed: int, seconds: float, trace: bool, outcome: Outcome) -> Spans:
    server = set_up(outcome)
    spans = Spans(enabled=False)
    try:
        specs = cold_specs(seed)
        issued: list[dict] = []
        records: list = []  # (sequence index, response, latency)

        async def client(deadline: float) -> None:
            async with Connection(HOST, server.port) as connection:
                while time.perf_counter() < deadline:
                    index = len(issued)
                    spec = next(specs)
                    issued.append(spec)
                    started = time.perf_counter()
                    try:
                        response = await asyncio.wait_for(
                            connection.request("POST", "/v1/solve", payload=spec),
                            REQUEST_TIMEOUT,
                        )
                    except asyncio.TimeoutError:
                        response = None  # connection state unknown: stop
                    records.append(
                        (index, response, time.perf_counter() - started)
                    )
                    if response is None:
                        return

        async def timed() -> tuple[dict, dict, float]:
            before = await scrape(server.port)
            started = time.perf_counter()
            await asyncio.gather(
                *(client(started + seconds) for _ in range(COLD_CLIENTS))
            )
            elapsed = time.perf_counter() - started
            after = await scrape(server.port)
            return before, after, elapsed

        before, after, elapsed = asyncio.run(timed())
        outcome.metrics["peak_rss_mb"] = tree_peak_mib(server.pid)
        failures: list[str] = []
        served: dict[int, float] = {}
        answers: dict[int, dict] = {}
        for index, response, _ in records:
            value = _check_answer(response, failures)
            if value is not None:
                served[index] = value
                answers[index] = response.json()
        latencies = [latency for _, _, latency in records]
        outcome.attempted = len(records)
        outcome.failed = len(records) - len(served)
        outcome.check(
            "solve-cold: every answer 200 with a re-derived digest and E[R] in [0, 1]",
            not failures,
            f"{len(served)}/{len(records)} ok" + (f"; first: {failures[0]}" if failures else ""),
        )
        rng = random.Random(seed)
        sample = rng.sample(sorted(served), min(SAMPLE_CHECKS, len(served)))
        worst = 0.0
        for index in sample:
            parameters, max_states, _ = resolve_spec(issued[index])
            value = evaluate(parameters, max_states=max_states).expected_reliability
            worst = max(worst, abs(value - served[index]))
        outcome.check(
            f"solve-cold: {len(sample)} seeded answers equal in-process "
            "evaluate() within 1e-9",
            len(sample) > 0 and worst <= 1e-9,
            f"max |diff| = {worst:.3e}",
        )
        ops = len(served)
        outcome.metrics["ops_per_s"] = ops / elapsed
        outcome.metrics["latency_p50_ms"] = 1000.0 * percentile(latencies, 50)
        outcome.metrics["latency_p90_ms"] = 1000.0 * percentile(latencies, 90)
        outcome.metrics["latency_p99_ms"] = 1000.0 * percentile(latencies, 99)
        outcome.note(
            f"closed loop, {COLD_CLIENTS} clients: {ops} solves in "
            f"{elapsed:.3f} s; latency n={len(latencies)}, "
            f"{beyond(len(latencies), 90)} beyond p90, "
            f"{beyond(len(latencies), 99)} beyond p99 (p99 is below the "
            "ten-sample bar here: the solve-cold tail is p90)"
        )
        if trace:
            outcome.metrics["serve.rtt_ms"] = asyncio.run(_rtt_ms(server.port))
            serve_layer_metrics(before, after, latencies, outcome)
            hot_probe(server, seed, outcome)
            replay = [i for i in range(REPLAY_SPECS) if i in served]
            outcome.check(
                f"trace: the first {REPLAY_SPECS} specs of the sequence were answered",
                len(replay) == REPLAY_SPECS,
                f"{len(replay)} answered",
            )
            spans = _replay_cold(
                [issued[i] for i in replay],
                [served[i] for i in replay],
                [answers[i] for i in replay],
                outcome,
            )
    finally:
        server.stop()
    return spans


def _replay_cold(specs, values, answers, outcome: Outcome) -> Spans:
    """Replay the cold specs untraced and traced; check fidelity."""
    counts = LayerCounts()
    replayed = [None] * len(specs)

    def run_unit(index: int, spans: Spans) -> None:
        ident = f"request-{index}"
        with spans("serve.request", ident):
            with spans("serve.identity", ident):
                fingerprint_spec(specs[index])
            parameters, max_states, _ = resolve_spec(specs[index])
            value, _ = replay(
                parameters, spans, ident,
                counts if spans.enabled else LayerCounts(),
                max_states=max_states,
            )
            with spans("serve.encode", ident):
                _encode(answers[index])
        if spans.enabled:
            replayed[index] = value

    spans, walls = paired(range(len(specs)), run_unit)
    worst = max(abs(a - b) for a, b in zip(replayed, values))
    outcome.check(
        f"trace: {len(specs)} replayed E[R] equal the served values within 1e-12",
        worst <= 1e-12,
        f"max |diff| = {worst:.3e}",
    )
    outcome.metrics.update(layer_metrics(spans, counts))
    outcome.metrics["serve.identity_ms"] = spans.mean_ms("serve.identity")
    outcome.metrics["serve.encode_ms"] = spans.mean_ms("serve.encode")
    outcome.metrics["trace.overhead"] = overhead(walls)
    outcome.note(
        f"replay: untraced {walls[0]:.3f} s, traced {walls[1]:.3f} s over "
        f"{len(specs)} specs"
    )
    return spans


# ----------------------------------------------------------------------
# the hot-path probe of the traced run
# ----------------------------------------------------------------------
def hot_probe(server: Server, seed: int, outcome: Outcome) -> None:
    """An open loop of cache hits, timed from each request's due time.

    The hot set is solved once (warm-up), then requested at
    ``HOT_RATE`` (seeded Poisson arrivals) over ``HOT_CONNECTIONS``
    keep-alive connections for ``HOT_PROBE_SECONDS``.  The generator
    enqueues each request at its due time; a request waits for a free
    connection, and that wait counts in its latency.
    """
    hot = hot_set(seed)
    rng = random.Random(seed)
    schedule, total = [], rng.expovariate(HOT_RATE)
    while total < HOT_PROBE_SECONDS:
        schedule.append((total, rng.randrange(len(hot))))
        total += rng.expovariate(HOT_RATE)
    failures: list[str] = []
    lags: list[float] = []
    latencies: list[float] = []

    async def probe() -> tuple[list, dict, dict]:
        warm = await _solve_all(server.port, hot)
        expected = [response.json() for response in warm]
        before = await scrape(server.port)
        queue: asyncio.Queue = asyncio.Queue()

        async def sender() -> None:
            async with Connection(HOST, server.port) as connection:
                while (item := await queue.get()) is not None:
                    due, which = item
                    response = await connection.request(
                        "POST", "/v1/solve", payload=hot[which]
                    )
                    latencies.append(time.perf_counter() - due)
                    _check_answer(response, failures, expected[which])

        senders = [asyncio.create_task(sender()) for _ in range(HOT_CONNECTIONS)]
        await asyncio.sleep(0.05)  # let the connections open
        start = time.perf_counter()
        for offset, which in schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(time.perf_counter() - due)
            queue.put_nowait((due, which))
        for _ in senders:
            queue.put_nowait(None)
        await asyncio.gather(*senders)
        return expected, before, await scrape(server.port)

    expected, before, after = asyncio.run(probe())
    requests = _delta(after, before, "repro_serve_solve_requests_total")
    hits = _delta(after, before, "repro_serve_cache_hits_total")
    outcome.check(
        f"hot probe: all {len(schedule)} scheduled requests answered 200, "
        "digest re-derived, bit-equal to the warm-up answer",
        not failures and len(latencies) == len(schedule),
        f"{len(latencies)} answered" + (f"; first: {failures[0]}" if failures else ""),
    )
    worst = 0.0
    for spec, answer in zip(hot, expected):
        parameters, max_states, _ = resolve_spec(spec)
        value = evaluate(parameters, max_states=max_states).expected_reliability
        worst = max(worst, abs(value - answer["result"]["expected_reliability"]))
    outcome.check(
        f"hot probe: {len(hot)} hot-set E[R] recomputed in-process equal the "
        "served values within 1e-12",
        worst <= 1e-12,
        f"max |diff| = {worst:.3e}",
    )
    metrics = outcome.metrics
    metrics["serve.hot.hit_ratio"] = hits / requests if requests else 0.0
    metrics["serve.hot.latency_p50_ms"] = 1000.0 * percentile(latencies, 50)
    metrics["serve.hot.latency_p99_ms"] = 1000.0 * percentile(latencies, 99)
    metrics["client.lag_ms"] = 1000.0 * percentile(lags, 99)
    outcome.note(
        f"hot probe: {len(hot)} specs (presets four, six + seeded neighbours) "
        f"at {HOT_RATE:g} req/s for {HOT_PROBE_SECONDS:g} s over "
        f"{HOT_CONNECTIONS} connections: n={len(latencies)}, "
        f"{beyond(len(latencies), 99)} beyond p99; serve.hot.hit_ratio = "
        f"{hits:.0f} cache hits / {requests:.0f} solve requests"
    )
