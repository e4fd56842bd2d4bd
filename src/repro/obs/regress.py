"""Benchmark trajectory tracking and the performance-regression gate.

The ``benchmarks/bench_*.py`` scripts regenerate paper artifacts under
``pytest-benchmark``; what they lacked was *history*: a slowdown was
invisible unless someone compared JSON files by eye.  This module gives
the repository a benchmark trajectory:

* :data:`BENCH_SUITE` — named, self-contained workloads covering the
  solver pipeline (CTMC and MRGP routes, reachability, simulation, and
  two end-to-end experiment regenerations), each sized to tens-to-
  hundreds of milliseconds so best-of-``rounds`` timing is stable;
* :func:`run_benchmarks` — a shared manifest-stamped runner: every
  :class:`BenchResult` embeds a :class:`~repro.obs.manifest.RunManifest`
  and a machine-speed **calibration**: the same run also times a fixed
  numpy workload, and the recorded ``score = seconds / calibration_s``
  largely cancels host-speed differences, so trajectories recorded on
  different machines stay comparable;
* ``BENCH_HISTORY.jsonl`` — an append-only JSONL file (one line per
  benchmark per run) that :func:`append_history` grows and the README
  table is generated from (``benchmarks/render_history.py``);
* :func:`find_regressions` — the gate: a benchmark regresses when its
  normalized score exceeds the latest baseline by more than
  ``tolerance`` (relative).  ``repro bench --gate`` exits non-zero on
  any regression; ``--slowdown id=2.0`` injects a synthetic slowdown so
  CI can prove the gate actually fires.

Timing goes through :func:`repro.obs.now` and runs uncached — the
trajectory measures solver cost, not cache state.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ParameterError
from repro.obs.clock import now
from repro.obs.manifest import RunManifest, collect_manifest

#: Default history file, resolved against the working directory (the
#: repository root in CI and normal use); ``repro bench --history``
#: overrides it.
DEFAULT_HISTORY = Path("BENCH_HISTORY.jsonl")

#: Repetitions per benchmark; the best (minimum) time is recorded.
DEFAULT_ROUNDS = 3

#: Relative slowdown of the normalized score tolerated by the gate.
#: 0.5 means "fail beyond 1.5x the baseline" — wide enough for same-
#: machine noise on sub-second workloads, tight enough that a genuine
#: 2x regression always trips it.
DEFAULT_TOLERANCE = 0.5


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def _bench_solve_ctmc() -> None:
    from repro.dspn import solve_steady_state
    from repro.perception.no_rejuvenation import build_no_rejuvenation_net
    from repro.perception.parameters import PerceptionParameters

    net = build_no_rejuvenation_net(
        PerceptionParameters(n_modules=16, f=1, rejuvenation=False)
    )
    for _ in range(10):
        solve_steady_state(net)


def _bench_solve_mrgp() -> None:
    from repro.dspn import solve_steady_state
    from repro.perception.parameters import PerceptionParameters
    from repro.perception.rejuvenation import build_rejuvenation_net

    net = build_rejuvenation_net(
        PerceptionParameters(n_modules=12, f=1, r=1, rejuvenation=True)
    )
    solve_steady_state(net)


def _bench_reachability() -> None:
    from repro.perception.no_rejuvenation import build_no_rejuvenation_net
    from repro.perception.parameters import PerceptionParameters
    from repro.statespace import tangible_reachability

    parameters = PerceptionParameters(n_modules=32, f=1, rejuvenation=False)
    for _ in range(10):
        tangible_reachability(build_no_rejuvenation_net(parameters))


def _bench_simulate() -> None:
    from repro.dspn import simulate
    from repro.perception.parameters import PerceptionParameters
    from repro.perception.rejuvenation import build_rejuvenation_net
    from repro.perception.statemap import module_counts

    net = build_rejuvenation_net(PerceptionParameters.six_version_defaults())
    simulate(
        net,
        reward=lambda marking: float(module_counts(marking).healthy),
        horizon=100000.0,
        replications=2,
        seed=0,
    )


def _bench_table2() -> None:
    from repro.experiments.registry import run_experiment

    for _ in range(5):
        run_experiment("table2-defaults")


def _bench_phase_diagram() -> None:
    from repro.experiments.registry import run_experiment

    run_experiment("phase-diagram")


def _bench_serve() -> None:
    """Serving throughput: 2000 cache-hit evaluations, closed loop.

    Boots an in-process :class:`~repro.serve.app.ReliabilityService`
    (thread executor: the cache-hit path never reaches a worker, and a
    process pool would time pool spin-up instead of request handling),
    drives it with 32 persistent connections, and fails loudly on any
    errored request — a benchmark that dropped requests would record a
    flattering lie.
    """
    import asyncio

    from repro.serve import ReliabilityService, ServeConfig
    from repro.serve.loadgen import run_load

    async def drive() -> None:
        service = ReliabilityService(
            ServeConfig(port=0, workers=2, executor="thread", queue_limit=256)
        )
        host, port = await service.start()
        try:
            result = await run_load(
                host, port, requests=2000, concurrency=32
            )
            if result.errors:
                raise RuntimeError(
                    f"serve bench dropped {result.errors} requests"
                )
        finally:
            await service.stop()

    asyncio.run(drive())


def _bench_sparse_steady() -> None:
    """Sparse stationary solve of the N=20 fleet product net (~6k states).

    The headline large-N workload: its LU fill estimate is past the
    SuperLU budget, so this times the ILU-GMRES route — and the solve is
    certified, so the benchmark cannot silently record a wrong answer
    fast.
    """
    from repro.dspn import solve_steady_state
    from repro.perception.fleet import FleetParameters, build_fleet_net

    net = build_fleet_net(FleetParameters.nv20_defaults())
    solve_steady_state(net, method="sparse", verify=True)


def _bench_sparse_transient() -> None:
    """Sparse uniformization on the N=15 fleet net over a 5-point grid."""
    from repro.dspn import transient_rewards
    from repro.perception.fleet import FleetParameters, build_fleet_net
    from repro.perception.statemap import module_counts

    net = build_fleet_net(FleetParameters.nv15_defaults())
    transient_rewards(
        net,
        lambda marking: float(module_counts(marking).healthy),
        times=(60.0, 300.0, 900.0, 1800.0, 3600.0),
        method="sparse",
    )


def _bench_sim_batch() -> None:
    """A million perception requests through the vectorized batch runtime.

    4096 independent six-version replica groups simulated for 256 rounds
    each (4096 x 256 = 1,048,576 voted requests).  The workload fails
    loudly if the runtime ever simulates fewer requests than advertised,
    so the recorded time always corresponds to the same request count
    and ``requests / seconds`` can be read straight off the history
    line.  The 1e6-requests-per-second acceptance bar for this workload
    is asserted by ``tests/obs/test_regress.py``.
    """
    from repro.obs.metrics import registry_override
    from repro.simulation import simulate_batch

    config = sim_batch_config()
    with registry_override():
        report = simulate_batch(config)
    if report.requests != config.groups * config.rounds:
        raise RuntimeError(
            f"sim-batch-1m simulated {report.requests} requests, "
            f"expected {config.groups * config.rounds}"
        )


def _bench_watch_firehose() -> None:
    """The ``sim-batch-1m`` workload with the watch detectors folded in.

    Same 1,048,576-request batch run, but with per-round totals
    recorded and every window pushed through the drift detector against
    the configuration's own analytic Eq. 1 target.  Two loud failure
    modes: simulating fewer requests than advertised, and raising any
    alert on this clean stream (which would mean either the detector or
    the runtime regressed).  The <5 % overhead acceptance bar versus
    ``sim-batch-1m`` is asserted by ``benchmarks/bench_watch_overhead``
    and ``tests/obs/test_regress.py``.
    """
    import dataclasses

    from repro.obs.metrics import registry_override
    from repro.obs.watch import batch_watch_config, watch_batch_report
    from repro.perception.evaluation import evaluate
    from repro.simulation import simulate_batch

    config = dataclasses.replace(
        sim_batch_config(), record_round_totals=True
    )
    target = evaluate(config.parameters).expected_reliability
    with registry_override():
        report = simulate_batch(config)
    if report.requests != config.groups * config.rounds:
        raise RuntimeError(
            f"watch-firehose-1m simulated {report.requests} requests, "
            f"expected {config.groups * config.rounds}"
        )
    watcher = watch_batch_report(
        config, report, batch_watch_config(config, target=target)
    )
    if watcher.windows_seen == 0:
        raise RuntimeError("watch-firehose-1m folded zero windows")
    if watcher.log.events:
        raise RuntimeError(
            f"watch-firehose-1m raised {len(watcher.log.events)} alert "
            "events on a clean stream"
        )


def sim_batch_config():
    """The exact workload behind the ``sim-batch-1m`` benchmark id.

    Exposed as a callable (the config holds numpy-unfriendly frozen
    dataclasses that are cheap to rebuild) so the throughput acceptance
    test drives the *same* configuration the gate times.
    """
    from repro.perception.parameters import PerceptionParameters
    from repro.simulation import BatchConfig

    return BatchConfig(
        parameters=PerceptionParameters.six_version_defaults(),
        groups=4096,
        rounds=256,
        request_period=1.0,
        seed=7,
        chunk_size=4096,
    )


#: The named benchmark suite ``repro bench`` runs subsets of.
BENCH_SUITE: dict[str, Callable[[], None]] = {
    "solve-ctmc-16x10": _bench_solve_ctmc,
    "solve-mrgp-12": _bench_solve_mrgp,
    "reachability-32x10": _bench_reachability,
    "simulate-6v": _bench_simulate,
    "table2-defaults-x5": _bench_table2,
    "phase-diagram": _bench_phase_diagram,
    "serve-cachehit-2k": _bench_serve,
    "sparse-steady-nv20": _bench_sparse_steady,
    "sparse-transient-nv15": _bench_sparse_transient,
    "sim-batch-1m": _bench_sim_batch,
    "watch-firehose-1m": _bench_watch_firehose,
}


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
_CALIBRATION_SIZE = 160
_CALIBRATION_SOLVES = 200


def calibration_run() -> float:
    """Seconds for a fixed numpy workload on this machine.

    A deterministic dense linear solve, repeated — the same primitive
    the CTMC/MRGP pipeline leans on — so ``seconds / calibration_s``
    mostly cancels host speed (and BLAS build) out of recorded scores.
    """
    n = _CALIBRATION_SIZE
    matrix = (np.arange(1.0, 1.0 + n * n).reshape(n, n) % 7.0) / 7.0
    matrix += np.eye(n) * n
    rhs = np.ones(n)
    start = now()
    for _ in range(_CALIBRATION_SOLVES):
        np.linalg.solve(matrix, rhs)
    return now() - start


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchResult:
    """One benchmark's timing in one run, with provenance attached."""

    bench: str
    seconds: float
    score: float  # seconds / calibration_s: machine-speed normalized
    calibration_s: float
    rounds: int
    manifest: RunManifest

    def as_dict(self) -> dict[str, Any]:
        return {
            "bench": self.bench,
            "seconds": self.seconds,
            "score": self.score,
            "calibration_s": self.calibration_s,
            "rounds": self.rounds,
            "manifest": self.manifest.as_dict(),
        }


def parse_slowdowns(specs: "Iterable[str] | None") -> dict[str, float]:
    """Parse ``id=factor`` injection specs (the ``--slowdown`` flag)."""
    slowdowns: dict[str, float] = {}
    for spec in specs or ():
        bench, separator, raw = spec.partition("=")
        try:
            factor = float(raw) if separator else math.nan
        except ValueError:
            factor = math.nan
        if not bench or not separator or not factor > 0:
            raise ParameterError(
                f"invalid slowdown spec {spec!r}; expected ID=FACTOR "
                "with FACTOR > 0 (e.g. solve-mrgp-12=2.0)"
            )
        slowdowns[bench] = factor
    return slowdowns


def run_benchmarks(
    ids: "Sequence[str] | None" = None,
    *,
    rounds: int = DEFAULT_ROUNDS,
    slowdowns: "Mapping[str, float] | None" = None,
    suite: "Mapping[str, Callable[[], None]] | None" = None,
) -> list[BenchResult]:
    """Time a suite subset (uncached, best-of-``rounds``, calibrated).

    ``slowdowns`` multiplies the recorded time of the named benchmarks —
    a synthetic injection for proving the gate fires, never for real
    measurements.  ``suite`` overrides :data:`BENCH_SUITE` (tests).
    """
    from repro.engine import cache_override

    suite = dict(suite if suite is not None else BENCH_SUITE)
    slowdowns = dict(slowdowns or {})
    ids = list(ids) if ids else list(suite)
    unknown = sorted(set(ids) - set(suite)) + sorted(
        set(slowdowns) - set(ids)
    )
    if unknown:
        raise ParameterError(
            f"unknown benchmark {unknown[0]!r}; "
            f"valid ids: {', '.join(sorted(suite))}"
        )
    if rounds < 1:
        raise ParameterError(f"rounds must be >= 1, got {rounds}")

    manifest = collect_manifest(
        experiment="bench", parameters={"rounds": rounds}
    )
    calibration_s = min(calibration_run() for _ in range(rounds))
    results: list[BenchResult] = []
    with cache_override(enabled=False):
        for bench in ids:
            workload = suite[bench]
            workload()  # warm imports and numpy caches before timing
            samples = []
            for _ in range(rounds):
                start = now()
                workload()
                samples.append(now() - start)
            seconds = min(samples) * slowdowns.get(bench, 1.0)
            results.append(
                BenchResult(
                    bench=bench,
                    seconds=seconds,
                    score=seconds / calibration_s,
                    calibration_s=calibration_s,
                    rounds=rounds,
                    manifest=manifest,
                )
            )
    return results


# ----------------------------------------------------------------------
# the trajectory file
# ----------------------------------------------------------------------
def load_history(path: "Path | str") -> list[dict[str, Any]]:
    """Parse a ``BENCH_HISTORY.jsonl`` trajectory (missing file = empty)."""
    path = Path(path)
    if not path.exists():
        return []
    entries = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as error:
            raise ParameterError(
                f"{path}:{number}: not a JSON object: {error}"
            ) from error
        entries.append(entry)
    return entries


def append_history(path: "Path | str", results: Iterable[BenchResult]) -> None:
    """Append one JSONL line per result to the trajectory file."""
    path = Path(path)
    lines = [
        json.dumps(result.as_dict(), sort_keys=True) for result in results
    ]
    with open(path, "a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def latest_baselines(
    history: Iterable[dict[str, Any]],
) -> dict[str, dict[str, Any]]:
    """The most recent history entry per benchmark id."""
    baselines: dict[str, dict[str, Any]] = {}
    for entry in history:
        bench = entry.get("bench")
        if bench:
            baselines[bench] = entry
    return baselines


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Regression:
    """One benchmark whose normalized score exceeded its baseline."""

    bench: str
    score: float
    baseline_score: float
    ratio: float
    tolerance: float

    def describe(self) -> str:
        return (
            f"{self.bench}: score {self.score:.3f} is {self.ratio:.2f}x the "
            f"baseline {self.baseline_score:.3f} "
            f"(limit {1.0 + self.tolerance:.2f}x)"
        )


def find_regressions(
    results: Iterable[BenchResult],
    baselines: Mapping[str, Mapping[str, Any]],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[Regression]:
    """Results whose score regressed past ``(1 + tolerance) * baseline``.

    Benchmarks with no baseline yet pass trivially (the first recorded
    run *is* the baseline); comparisons use the machine-normalized
    ``score``, so a faster or slower host does not masquerade as a
    code-level speedup or regression.
    """
    if tolerance < 0:
        raise ParameterError(f"tolerance must be >= 0, got {tolerance}")
    regressions = []
    for result in results:
        baseline = baselines.get(result.bench)
        if baseline is None:
            continue
        baseline_score = float(baseline["score"])
        if baseline_score <= 0:
            continue
        ratio = result.score / baseline_score
        if ratio > 1.0 + tolerance:
            regressions.append(
                Regression(
                    bench=result.bench,
                    score=result.score,
                    baseline_score=baseline_score,
                    ratio=ratio,
                    tolerance=tolerance,
                )
            )
    return regressions
