"""Reliability-as-a-service: the async HTTP+JSONL evaluation server.

``repro.serve`` exposes the solve/verify/sweep pipeline over the wire
(stdlib asyncio only — no new runtime dependencies):

* :class:`ReliabilityService` / :class:`ServeConfig` — the server
  (``repro serve`` on the CLI): request coalescing keyed on resolved
  specs, per-client token-bucket rate limits, bounded-queue
  back-pressure, solver work on a ``ProcessPoolExecutor``, and every
  response stamped with a :class:`~repro.obs.manifest.RunManifest` plus
  a SHA-256 result digest;
* :mod:`repro.serve.jobs` — async sweep jobs with polling and live
  JSONL event streaming (the :mod:`repro.obs.events` dialect);
* :mod:`repro.serve.client` — the minimal asyncio client the tests and
  load harness drive the service with;
* :mod:`repro.serve.loadgen` — open/closed-loop load generation with
  latency histograms (``python -m repro.serve.loadgen`` is its CLI).

See ``docs/SERVING.md`` for the endpoint reference and a walkthrough.
"""

from repro.serve.app import BackPressure, ReliabilityService, ServeConfig
from repro.serve.coalesce import Coalescer
from repro.serve.jobs import Job, JobStore
from repro.serve.ratelimit import RateLimiter, TokenBucket
from repro.serve.worker import (
    SpecError,
    fingerprint_spec,
    resolve_spec,
    result_digest,
)

#: Re-exported lazily, so ``python -m repro.serve.loadgen`` runs the
#: module once, as ``__main__``, not a second time through this package.
_LOADGEN = ("LoadResult", "coalesce_proof", "run_load")


def __getattr__(name: str):
    if name in _LOADGEN:
        from repro.serve import loadgen

        return getattr(loadgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BackPressure",
    "Coalescer",
    "Job",
    "JobStore",
    "LoadResult",
    "RateLimiter",
    "ReliabilityService",
    "ServeConfig",
    "SpecError",
    "TokenBucket",
    "coalesce_proof",
    "fingerprint_spec",
    "resolve_spec",
    "result_digest",
    "run_load",
]
