"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the workload and prints the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` runs it again with benchmark-side
spans around calls into each layer, prints the per-layer self-time
table and the per-layer metrics, and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# Pin BLAS to one thread in this process and every process it starts
# (the server, its pool workers, sweep and simulation workers inherit
# the environment): two workers x two BLAS threads oversubscribe two
# cores.  This must happen before numpy is first imported.
for _variable in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_variable] = "1"
# No disk cache tier: every run starts cold.
os.environ.pop("REPRO_CACHE_DIR", None)

from harness import OUT_DIR, ROOT, Outcome  # noqa: E402

WORKLOADS = ("solve-cold", "sweep-large", "sim-monitored")


def _workload(name: str):
    if name == "solve-cold":
        from serving import solve_cold

        return solve_cold
    if name == "sweep-large":
        from sweeping import sweep_large

        return sweep_large
    from simulating import sim_monitored

    return sim_monitored


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    outcome = Outcome()
    started = time.perf_counter()
    spans = _workload(args.workload)(args.seed, args.seconds, bool(args.trace), outcome)
    wall = time.perf_counter() - started

    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}  wall {wall:.2f} s"
    )
    print(
        "environment: BLAS threads pinned to 1 "
        f"(OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}), "
        "REPRO_CACHE_DIR unset, python "
        + sys.version.split()[0]
        + f", {os.cpu_count()} CPUs"
    )
    for text in outcome.notes:
        print("note: " + text)
    for name, passed, detail in outcome.checks:
        print(f"check {'PASS' if passed else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    if args.trace:
        print("per-layer self time (benchmark-side spans, flattened by name):")
        for line in spans.render():
            print(line)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json"
        spans.dump(path)
        print(f"spans written to {path.relative_to(ROOT)}")

    metrics = {}
    for entry in wanted:
        value = outcome.metrics.get(entry["name"])
        exercised = value is not None
        metrics[entry["name"]] = {
            "value": float(value) if exercised else 0.0,
            "unit": entry["unit"],
        }
        print(
            f"metric {entry['name']:<26} {metrics[entry['name']]['value']:>14.6f} "
            f"{entry['unit']}" + ("" if exercised else "  (layer not exercised by this workload)")
        )
    print(f"ops attempted {outcome.attempted}  failed {outcome.failed}  correct {outcome.correct}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
