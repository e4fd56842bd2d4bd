"""Load generation against a running reliability service.

The harness behind ``python -m repro.serve.loadgen``, the
``serve-cachehit-2k`` benchmark, and the CI serve smoke.  From the root
of a checkout::

    # throughput smoke: sustained cache-hit evaluations per second
    PYTHONPATH=src python -m repro.serve.loadgen --url http://127.0.0.1:8080 \
        --requests 5000 --concurrency 32 --min-throughput 1000 \
        --out serve-load.json

    # coalescing proof: 50 identical in-flight requests, exactly 1 solve
    PYTHONPATH=src python -m repro.serve.loadgen --url http://127.0.0.1:8080 \
        --coalesce-proof 50

    # open-loop latency at a controlled offered load
    PYTHONPATH=src python -m repro.serve.loadgen --url http://127.0.0.1:8080 \
        --mode open --rate 500 --requests 2000

Two drive modes:

* **closed loop** — ``concurrency`` workers over persistent keep-alive
  connections, each firing its next request the moment the previous
  response lands: measures the service's sustainable throughput;
* **open loop** — arrivals scheduled at a fixed ``rate`` regardless of
  completions (bounded by a connection pool): measures latency under a
  controlled offered load, the way real traffic arrives.

Latencies land in a :class:`repro.obs.metrics.Histogram`, so the
reported p50/p90/p99 are the same factor-of-two-bounded quantiles the
OpenMetrics exporter publishes.  Every response's ``digest`` is
re-derived from the canonical result JSON and checked — a load test
that silently accepted corrupt answers would prove nothing.

:func:`coalesce_proof` is the standing acceptance check for request
coalescing: ``k`` identical requests against a cold fingerprint must
produce exactly one executed solve (one ``cache: miss``) with every
other caller served by coalescing or the result cache.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from repro.obs import clock as _clockmod
from repro.obs.metrics import Histogram
from repro.serve.client import Connection
from repro.serve.worker import result_digest

#: The default throughput workload: the paper's 4-version system — a
#: small CTMC, so the single cold solve is cheap and everything after
#: it exercises the serving path, not the solver.
DEFAULT_SPEC: dict[str, Any] = {"preset": "four"}


@dataclass
class LoadResult:
    """One load run's measurements."""

    requests: int
    errors: int
    seconds: float
    by_cache: dict[str, int] = field(default_factory=dict)
    by_status: dict[int, int] = field(default_factory=dict)
    latency: Histogram = field(default_factory=Histogram)
    digest_failures: int = 0

    @property
    def throughput(self) -> float:
        """Completed evaluations per second."""
        completed = self.requests - self.errors
        return completed / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "seconds": self.seconds,
            "throughput": self.throughput,
            "by_cache": dict(sorted(self.by_cache.items())),
            "by_status": {
                str(status): count
                for status, count in sorted(self.by_status.items())
            },
            "digest_failures": self.digest_failures,
            "latency": {
                **self.latency.summary(),
                "p50": self.latency.quantile(0.5),
                "p90": self.latency.quantile(0.9),
                "p99": self.latency.quantile(0.99),
            },
        }


async def _fire(
    connection: Connection,
    path: str,
    spec: dict[str, Any],
    result: LoadResult,
    *,
    verify_digest: bool,
) -> None:
    started = _clockmod.now()
    try:
        response = await connection.request("POST", path, payload=spec)
    except (ConnectionError, OSError, asyncio.IncompleteReadError):
        result.errors += 1
        return
    result.latency.observe(max(0.0, _clockmod.now() - started))
    result.by_status[response.status] = (
        result.by_status.get(response.status, 0) + 1
    )
    if response.status != 200:
        result.errors += 1
        return
    payload = response.json()
    source = payload.get("cache", "?")
    result.by_cache[source] = result.by_cache.get(source, 0) + 1
    if verify_digest and result_digest(payload["result"]) != payload["digest"]:
        result.digest_failures += 1
        result.errors += 1


async def run_load(
    host: str,
    port: int,
    *,
    requests: int,
    concurrency: int = 32,
    mode: str = "closed",
    rate: float | None = None,
    spec: dict[str, Any] | None = None,
    path: str = "/v1/solve",
    verify_digest: bool = True,
    warmup: int = 1,
) -> LoadResult:
    """Drive the service and return the measurements.

    ``warmup`` requests (sequential, untimed) populate the service's
    result cache first, so closed-loop numbers measure the sustained
    cache-hit path rather than the one cold solve.  Set ``warmup=0``
    to include cold behaviour (the coalesce proof does).
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    if mode == "open" and not rate:
        raise ValueError("open-loop mode needs a positive 'rate'")
    spec = dict(spec or DEFAULT_SPEC)
    result = LoadResult(requests=requests, errors=0, seconds=0.0)

    connections = [Connection(host, port) for _ in range(concurrency)]
    for connection in connections:
        await connection.connect()
    try:
        async with Connection(host, port) as warm_connection:
            warm = LoadResult(requests=warmup, errors=0, seconds=0.0)
            for _ in range(warmup):
                await _fire(
                    warm_connection,
                    path,
                    spec,
                    warm,
                    verify_digest=verify_digest,
                )

        started = _clockmod.now()
        if mode == "closed":
            remaining = iter(range(requests))

            async def worker(connection: Connection) -> None:
                for _ in remaining:
                    await _fire(
                        connection,
                        path,
                        spec,
                        result,
                        verify_digest=verify_digest,
                    )

            await asyncio.gather(
                *(worker(connection) for connection in connections)
            )
        else:
            pool: asyncio.Queue[Connection] = asyncio.Queue()
            for connection in connections:
                pool.put_nowait(connection)

            async def arrival() -> None:
                connection = await pool.get()
                try:
                    await _fire(
                        connection,
                        path,
                        spec,
                        result,
                        verify_digest=verify_digest,
                    )
                finally:
                    pool.put_nowait(connection)

            interval = 1.0 / float(rate)
            tasks = []
            next_at = _clockmod.now()
            for _ in range(requests):
                delay = next_at - _clockmod.now()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.ensure_future(arrival()))
                next_at += interval
            await asyncio.gather(*tasks)
        result.seconds = max(1e-9, _clockmod.now() - started)
    finally:
        for connection in connections:
            await connection.close()
    return result


async def coalesce_proof(
    host: str,
    port: int,
    *,
    k: int = 50,
    spec: dict[str, Any] | None = None,
    path: str = "/v1/solve",
) -> dict[str, Any]:
    """Fire ``k`` identical requests at once against a cold fingerprint.

    Returns the client-side tally.  Coalescing holds when exactly one
    request reports ``cache: miss`` (the one executed solve) and the
    other ``k - 1`` report ``coalesced`` (joined in flight) or ``hit``
    (landed after completion); the caller should also confirm the
    server-side ``repro_serve_solve_executed_total`` counter moved by
    exactly one.
    """
    if spec is None:
        # Distinct from DEFAULT_SPEC so the fingerprint is cold even
        # after a throughput run against the same server.
        spec = {"preset": "six", "mttc": 1523.25}
    result = LoadResult(requests=k, errors=0, seconds=0.0)
    connections = [Connection(host, port) for _ in range(k)]
    for connection in connections:
        await connection.connect()
    try:
        started = _clockmod.now()
        await asyncio.gather(
            *(
                _fire(connection, path, spec, result, verify_digest=True)
                for connection in connections
            )
        )
        result.seconds = max(1e-9, _clockmod.now() - started)
    finally:
        for connection in connections:
            await connection.close()
    tally = result.as_dict()
    tally["ok"] = (
        result.errors == 0
        and result.by_cache.get("miss", 0) == 1
        and result.by_cache.get("coalesced", 0)
        + result.by_cache.get("hit", 0)
        == k - 1
    )
    return tally


# ----------------------------------------------------------------------
# CLI (``python -m repro.serve.loadgen``)
# ----------------------------------------------------------------------
_SOLVES_LINE_PATTERN = (
    r"^repro_serve_solve_executed_total ([0-9.eE+-]+)$"
)


def parse_url(url: str) -> tuple[str, int]:
    """``(host, port)`` of a service base URL (scheme optional)."""
    from urllib.parse import urlsplit

    split = urlsplit(url if "//" in url else f"http://{url}")
    if split.hostname is None or split.port is None:
        raise SystemExit(f"need host and port in --url, got {url!r}")
    return split.hostname, split.port


async def scrape_solves(host: str, port: int) -> float:
    """The server's ``repro_serve_solve_executed_total`` counter."""
    import re

    from repro.serve.client import request as http_request

    response = await http_request(host, port, "GET", "/metrics")
    if response.status != 200:
        raise SystemExit(f"/metrics answered {response.status}")
    match = re.search(
        _SOLVES_LINE_PATTERN, response.body.decode(), re.MULTILINE
    )
    return float(match.group(1)) if match else 0.0


async def main_async(args: Any) -> int:
    import json
    import sys
    from pathlib import Path

    host, port = parse_url(args.url)
    spec = json.loads(args.spec) if args.spec else None
    artifact: dict = {}
    failed = False

    if args.coalesce_proof:
        before = await scrape_solves(host, port)
        tally = await coalesce_proof(
            host, port, k=args.coalesce_proof, spec=spec
        )
        after = await scrape_solves(host, port)
        tally["server_solves_executed"] = after - before
        tally["ok"] = tally["ok"] and after - before == 1.0
        artifact["coalesce_proof"] = tally
        print(
            f"coalesce proof (k={args.coalesce_proof}): "
            f"{tally['by_cache']} server solves {after - before:.0f} "
            f"-> {'ok' if tally['ok'] else 'FAILED'}"
        )
        if not tally["ok"]:
            failed = True
    else:
        result = await run_load(
            host,
            port,
            requests=args.requests,
            concurrency=args.concurrency,
            mode=args.mode,
            rate=args.rate,
            spec=spec,
        )
        summary = result.as_dict()
        artifact["load"] = summary
        latency = summary["latency"]
        print(
            f"{args.mode}-loop: {result.requests} requests in "
            f"{result.seconds:.2f}s -> {result.throughput:.0f} eval/s  "
            f"(errors {result.errors}, digest failures "
            f"{result.digest_failures})"
        )
        print(
            f"latency p50 <= {latency['p50'] * 1000:.2f} ms  "
            f"p90 <= {latency['p90'] * 1000:.2f} ms  "
            f"p99 <= {latency['p99'] * 1000:.2f} ms  "
            f"(upper bounds; max {latency['max'] * 1000:.2f} ms)"
        )
        print(f"cache mix: {summary['by_cache']}")
        if result.errors:
            print(f"FAILED: {result.errors} errored requests", file=sys.stderr)
            failed = True
        if args.min_throughput and result.throughput < args.min_throughput:
            print(
                f"FAILED: throughput {result.throughput:.0f} eval/s below "
                f"the {args.min_throughput:.0f} floor",
                file=sys.stderr,
            )
            failed = True

    if args.out:
        Path(args.out).write_text(
            json.dumps(artifact, indent=2, sort_keys=True) + "\n"
        )
        print(f"artifact written to {args.out}")
    return 1 if failed else 0


def main(argv: "list[str] | None" = None) -> int:
    """The ``python -m repro.serve.loadgen`` entry point (argparse + asyncio)."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Load-generation CLI for the reliability service"
    )
    parser.add_argument(
        "--url", default="http://127.0.0.1:8080", help="service base URL"
    )
    parser.add_argument(
        "--requests", type=int, default=2000, help="requests to issue"
    )
    parser.add_argument(
        "--concurrency", type=int, default=32,
        help="persistent connections driving the load",
    )
    parser.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed: next request on completion; open: fixed arrival rate",
    )
    parser.add_argument(
        "--rate", type=float, default=None,
        help="open-loop arrival rate in req/s",
    )
    parser.add_argument(
        "--spec", default=None,
        help="request spec as JSON (default: the 4-version preset)",
    )
    parser.add_argument(
        "--coalesce-proof", type=int, default=0, metavar="K",
        help="instead of a load run, fire K identical requests against a "
        "cold fingerprint and assert exactly one solve executed",
    )
    parser.add_argument(
        "--min-throughput", type=float, default=0.0, metavar="T",
        help="fail (exit 1) below T completed evaluations per second",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the latency-histogram artifact JSON to FILE",
    )
    args = parser.parse_args(argv)
    try:
        return asyncio.run(main_async(args))
    except OSError as error:
        if error.filename is not None:  # --out, not the network
            raise
        import sys

        print(f"error: cannot reach {args.url}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
