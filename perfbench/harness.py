"""Shared pieces of the benchmark: statistics, memory sampling, spans,
set-up timing and the outcome of a run.

Nothing here imports :mod:`repro`; the workload modules do.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` (0 < q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def median(values) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# peak resident memory of a process tree
# ----------------------------------------------------------------------
def _parent_map() -> dict[int, int]:
    parents: dict[int, int] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may contain spaces; fields resume after ")"
        fields = stat[stat.rfind(b")") + 2 :].split()
        parents[int(entry.name)] = int(fields[1])
    return parents


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant, by a scan of ``/proc``."""
    children: dict[int, list[int]] = {}
    for pid, parent in _parent_map().items():
        children.setdefault(parent, []).append(pid)
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def peak_rss_kib(pid: int) -> int:
    """``VmHWM`` (peak resident set) of one process; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_mib(root: int) -> float:
    """Summed ``VmHWM`` of ``root`` and its live descendants, in MiB."""
    return sum(peak_rss_kib(pid) for pid in process_tree(root)) / 1024.0


class PeakRss:
    """Largest summed ``VmHWM`` of a process tree, sampled on a thread.

    ``VmHWM`` only grows, so the sum over the processes alive at one
    sample is their summed peak so far; the largest such sum over the
    run is what workers that exit mid-run (sweep and simulation pools)
    held at their high-water mark, to within one sampling interval.
    """

    def __init__(self, root: int, interval: float = 0.1) -> None:
        self.root = root
        self.interval = interval
        self.peak_mib = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        self.peak_mib = max(self.peak_mib, tree_peak_mib(self.root))

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.interval)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


# ----------------------------------------------------------------------
# benchmark-side spans
# ----------------------------------------------------------------------
class _Span:
    __slots__ = ("spans", "record")

    def __init__(self, spans: "Spans", record: dict) -> None:
        self.spans = spans
        self.record = record

    def __enter__(self) -> dict:
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc_info) -> None:
        self.record["end"] = time.perf_counter()
        self.spans._open.pop()


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NO_SPAN = _NoSpan()


class Spans:
    """In-memory spans recorded around calls into the program's layers.

    Each record holds ``name``, ``start``, ``end``, ``parent`` (index of
    the enclosing span) and ``id`` (the request or point it serves).
    With ``enabled=False`` every span is a shared no-op, which is how
    the untraced half of the overhead comparison runs the same code.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._open: list[int] = []

    def __call__(self, name: str, ident: "str | None" = None):
        if not self.enabled:
            return _NO_SPAN
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "id": ident,
        }
        self._open.append(len(self.records))
        self.records.append(record)
        return _Span(self, record)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, total self seconds)``, flattened by name.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child_time = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        table: dict[str, tuple[int, float]] = {}
        for index, record in enumerate(self.records):
            calls, total = table.get(record["name"], (0, 0.0))
            own = record["end"] - record["start"] - child_time[index]
            table[record["name"]] = (calls + 1, total + own)
        return table

    def mean_ms(self, name: str) -> float:
        """Mean self time per call of ``name`` in ms (0 if never called)."""
        calls, total = self.self_times().get(name, (0, 0.0))
        return 1000.0 * total / calls if calls else 0.0

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as sink:
            json.dump({"spans": self.records}, sink)

    def render(self) -> list[str]:
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1][1])
        lines = [f"  {'span':<28} {'calls':>7} {'self_ms':>11} {'mean_ms':>10}"]
        for name, (calls, total) in rows:
            lines.append(
                f"  {name:<28} {calls:>7} {1000 * total:>11.3f} "
                f"{1000 * total / calls:>10.4f}"
            )
        return lines


def paired(units, run_unit) -> "tuple[Spans, list[float]]":
    """Run every unit untraced and traced, alternating which goes first.

    ``run_unit(unit, spans)`` does one unit of replay work.  Returns the
    traced spans and the summed ``[untraced, traced]`` seconds, whose
    difference is the overhead of recording the spans; alternating the
    order keeps warm-up and drift out of that difference.
    """
    traced, untraced = Spans(True), Spans(False)
    walls = [0.0, 0.0]
    for index, unit in enumerate(units):
        for spans in (untraced, traced) if index % 2 == 0 else (traced, untraced):
            started = time.perf_counter()
            run_unit(unit, spans)
            walls[spans.enabled] += time.perf_counter() - started
    return traced, walls


def overhead(walls: "list[float]") -> float:
    """Tracing overhead as a share of the untraced time."""
    return (walls[1] - walls[0]) / walls[0]


def setup_probe(code: str, runs: int) -> list[float]:
    """Seconds for a fresh interpreter to run ``code``, ``runs`` times.

    ``code`` runs with the program's ``src`` and this directory on the
    import path, so it pays every import a first run pays.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    )
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120
        )
        times.append(time.perf_counter() - started)
    return times


# ----------------------------------------------------------------------
# correctness checks and the run outcome
# ----------------------------------------------------------------------
class Outcome:
    """What one run measured: ops, checks, metrics and notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(passed), detail))
        return bool(passed)

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(passed for _, passed, _ in self.checks)
