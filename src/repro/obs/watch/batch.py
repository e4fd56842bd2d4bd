"""Fold a batch-simulation run into the watch detectors.

The batch runtime (``record_round_totals=True``) records per-round
fleet totals as int64 count vectors summed across chunks — integer
addition commutes, so the merged round stream is byte-identical at
every ``jobs`` value.  :func:`batch_windows` groups those rounds into
blocks of ``block`` rounds (skipping warmup) and
:func:`watch_batch_report` feeds them through a
:class:`~repro.obs.watch.watcher.Watcher` **round-synchronously over
the chunk-merged stream**: detector decisions depend only on the
merged per-round counts, never on chunk boundaries, which is what the
jobs=1 vs jobs=4 byte-stability proof in CI relies on.

Window ``time`` is simulated stream time (the last round's end,
``(k+1) * request_period``) — a pure function of the configuration, so
the alert JSONL is identical under any wall clock, including
:class:`~repro.obs.clock.ManualClock` replay.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import ParameterError
from repro.obs.watch.watcher import WatchConfig, Watcher
from repro.simulation.batch.runtime import BatchConfig, BatchReport


def batch_windows(
    config: BatchConfig, report: BatchReport, *, block: int
) -> "Iterator[dict[str, Any]]":
    """Yield detector windows of ``block`` measured rounds each.

    Each window is keyword-ready for
    :meth:`~repro.obs.watch.watcher.Watcher.observe_window` (and is the
    payload of the ``sim.batch.window`` event): stream ``time``,
    vote-outcome counts (``errors`` out of ``trials`` requests,
    safe-skip convention — inconclusive rounds are not failures), and
    the monitor bookkeeping (module-vote ``deviations`` out of
    ``participants``, ``flagged`` module-rounds).
    """
    if block < 1:
        raise ParameterError(f"block must be >= 1, got {block}")
    if report.round_errors is None:
        raise ParameterError(
            "report has no per-round totals; run simulate_batch with "
            "record_round_totals=True"
        )
    for start in range(config.warmup_rounds, config.rounds, block):
        end = min(start + block, config.rounds)
        rounds = end - start
        window: dict[str, Any] = {
            "time": end * config.request_period,
            "errors": int(report.round_errors[start:end].sum()),
            "trials": rounds * config.groups,
        }
        if report.round_participants is not None:
            window["deviations"] = int(
                report.round_deviations[start:end].sum()
            )
            window["participants"] = int(
                report.round_participants[start:end].sum()
            )
            window["flagged"] = int(report.round_flagged[start:end].sum())
        yield window


def watch_batch_report(
    config: BatchConfig,
    report: BatchReport,
    watch_config: WatchConfig,
) -> Watcher:
    """Run every window of ``report`` through a fresh watcher."""
    watcher = Watcher(watch_config)
    for window in batch_windows(config, report, block=watch_config.block):
        watcher.observe_window(**window)
    return watcher


def batch_watch_config(
    config: BatchConfig,
    *,
    target: "float | None",
    base: "WatchConfig | None" = None,
    **overrides: Any,
) -> WatchConfig:
    """A :class:`WatchConfig` armed for this batch configuration.

    Arms the drift detector against ``target`` (the analytic Eq. 1
    value) and, when the run monitors, the consistency detector with
    the estimator's own deviate probabilities — the same constants
    :class:`~repro.monitor.estimator.HealthEstimator` uses.
    """
    from repro.monitor.estimator import deviation_likelihoods

    fields: dict[str, Any] = dict(base.as_dict()) if base is not None else {}
    fields["target"] = target
    if config.monitor is not None:
        healthy, compromised = deviation_likelihoods(config.parameters)
        fields["p_deviate_healthy"] = healthy
        fields["p_deviate_compromised"] = compromised
    fields.update(overrides)
    return WatchConfig.from_dict(fields)
