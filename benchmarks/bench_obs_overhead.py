"""Overhead budget of the observability layer (``repro.obs``).

The instrumentation contract is "free when off": with no active tracer,
``span(...)`` is one ContextVar read returning a shared no-op singleton,
and metric updates are cheap dictionary bumps.  This benchmark holds the
layer to that contract by timing the solver pipeline twice —

* **disabled** — the shipping configuration: instrumentation in place,
  tracing off (the path every normal ``repro`` run takes);
* **stubbed**  — the same workload with each instrumented module's
  ``span``/``counter``/``histogram`` hooks swapped for trivial stubs,
  approximating an uninstrumented build;

— and asserting the disabled path stays within ``BUDGET_PCT`` of the
stubbed baseline.  One pass takes 10-30 ms, too short to resolve 5 % on
a shared machine, so each of the ``ROUNDS`` rounds runs a fixed number
of passes per mode, calibrated once so that a mode's sample lasts at
least ``MIN_SAMPLE_S``.  Within a round the modes alternate pass by
pass, and the overhead is the median over all passes of the paired
ratio disabled / stubbed: a burst of load from elsewhere slows one pair
and moves the median by one rank, where it moved a best-of-``ROUNDS``
sample mean by tens of percent.  The best-of-``ROUNDS`` per-pass times
of both modes and a microbenchmark of the bare no-op ``span()`` call
are recorded alongside for context.

Runnable two ways::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py  # writes BENCH_obs.json
    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py --benchmark-only
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import statistics
from pathlib import Path

from repro.dspn import solve_steady_state
from repro.engine import cache_override
from repro.obs import NULL_SPAN, collect_manifest, now, span
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_rejuvenation_net

RESULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

#: Rounds of paired passes; the ratio is the median over all of them.
ROUNDS = 5

#: Shortest timed sample, in seconds; sets the passes per sample.
MIN_SAMPLE_S = 0.2

#: Maximum tolerated slowdown of disabled-tracing over the stubbed
#: baseline, in percent.
BUDGET_PCT = 5.0

#: Every module that imports observability hooks at module level.
INSTRUMENTED_MODULES = (
    "repro.statespace.reachability",
    "repro.statespace.vanishing",
    "repro.dspn.sparse_builder",
    "repro.dspn.mrgp_builder",
    "repro.dspn.rewards",
    "repro.dspn.steady_state",
    "repro.dspn.simulate",
    "repro.markov.linear",
    "repro.markov.sparse",
    "repro.markov.mrgp",
    "repro.perception.evaluation",
    "repro.engine.cache",
    "repro.engine.sweep",
    "repro.verify.runner",
)


class _StubMetric:
    """Inert counter/gauge/histogram stand-in."""

    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_STUB_METRIC = _StubMetric()


def _stub_span(name, **attrs):
    return NULL_SPAN


def _stub_metric(name):
    return _STUB_METRIC


@contextlib.contextmanager
def stubbed_instrumentation():
    """Swap every module-level obs hook for a trivial stub.

    This approximates a build with no observability layer at all: the
    call sites remain (they cannot be deleted without editing source)
    but resolve to constant-returning functions with no ContextVar
    lookups and no registry access.
    """
    saved: list[tuple[object, str, object]] = []
    for module_name in INSTRUMENTED_MODULES:
        module = importlib.import_module(module_name)
        for attr, stub in (
            ("span", _stub_span),
            ("counter", _stub_metric),
            ("gauge", _stub_metric),
            ("histogram", _stub_metric),
        ):
            if hasattr(module, attr):
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, stub)
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def _workload(ctmc_net, mrgp_net) -> None:
    """One traced-pipeline pass: a CTMC-route and an MRGP-route solve."""
    with cache_override(enabled=False):
        solve_steady_state(ctmc_net)
        solve_steady_state(mrgp_net)


def _timed_pass(ctmc_net, mrgp_net) -> float:
    start = now()
    _workload(ctmc_net, mrgp_net)
    return now() - start


def _round(passes: int, ctmc_net, mrgp_net) -> list[tuple[float, float]]:
    """``passes`` pairs of pass times ``(disabled, stubbed)``, in seconds."""
    pairs = []
    for _ in range(passes):
        disabled = _timed_pass(ctmc_net, mrgp_net)
        with stubbed_instrumentation():
            pairs.append((disabled, _timed_pass(ctmc_net, mrgp_net)))
    return pairs


def _noop_span_cost(samples: int = 200_000) -> float:
    """Seconds per ``span()`` call with tracing disabled."""
    start = now()
    for _ in range(samples):
        span("bench.noop")
    return (now() - start) / samples


def measure() -> dict:
    """Paired disabled vs stubbed pass times; assert data, not verdicts."""
    ctmc_net = build_no_rejuvenation_net(
        PerceptionParameters(n_modules=8, f=1, rejuvenation=False)
    )
    mrgp_net = build_rejuvenation_net(
        PerceptionParameters(n_modules=9, f=1, r=1, rejuvenation=True)
    )

    # Warm both paths (imports, numpy caches) before timing anything.
    _workload(ctmc_net, mrgp_net)
    with stubbed_instrumentation():
        _workload(ctmc_net, mrgp_net)
    fastest = min(_timed_pass(ctmc_net, mrgp_net) for _ in range(3))
    passes = max(1, math.ceil(MIN_SAMPLE_S / fastest))

    rounds = [_round(passes, ctmc_net, mrgp_net) for _ in range(ROUNDS)]

    disabled_s, stubbed_s = (
        min(statistics.fmean(pair[mode] for pair in pairs) for pairs in rounds)
        for mode in (0, 1)
    )
    ratio = statistics.median(d / s for pairs in rounds for d, s in pairs)
    overhead_pct = (ratio - 1.0) * 100.0

    return {
        "manifest": collect_manifest(
            experiment="bench_obs_overhead",
            parameters={
                "rounds": ROUNDS,
                "passes_per_sample": passes,
                "budget_pct": BUDGET_PCT,
            },
        ).as_dict(),
        "disabled_s": disabled_s,
        "stubbed_baseline_s": stubbed_s,
        "overhead_pct": overhead_pct,
        "budget_pct": BUDGET_PCT,
        "noop_span_ns": _noop_span_cost() * 1e9,
    }


def bench_obs_overhead(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    RESULT_FILE.write_text(json.dumps(results, indent=2) + "\n")
    print()
    print(json.dumps(results, indent=2))
    assert results["overhead_pct"] <= results["budget_pct"], (
        f"disabled-tracing overhead {results['overhead_pct']:.2f}% exceeds "
        f"the {results['budget_pct']:.1f}% budget"
    )


def main() -> None:
    results = measure()
    RESULT_FILE.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    if results["overhead_pct"] > results["budget_pct"]:
        raise SystemExit(
            f"disabled-tracing overhead {results['overhead_pct']:.2f}% exceeds "
            f"the {results['budget_pct']:.1f}% budget"
        )


if __name__ == "__main__":
    main()
