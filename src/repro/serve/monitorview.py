"""The ``GET /monitor`` view: runtime-monitor state as plain JSON.

The paper's closed observe→act loop (runtime reliability monitoring +
rejuvenation) only pays off if an operator can inspect it; this module
renders everything :mod:`repro.monitor` knows into one JSON-able dict:

* the ``monitor.*`` counters and the ``monitor.disagreement`` histogram
  from a metrics registry — present whether or not a controller runs in
  this process (a standalone server reports zeros);
* when a :class:`~repro.monitor.controller.MonitorController` is
  attached (:meth:`ReliabilityService.attach_monitor`): the Bayesian
  health estimator's per-module posterior, which modules are currently
  *flagged* (the monitor's own flag mask: posterior crossed the
  detection threshold and has not crossed back), per-module
  availability, the policy identity and remaining rejuvenation budget,
  and the :class:`~repro.monitor.metrics.MonitorSummary` aggregates.

Everything here is a pure read — calling it never advances estimator
state, so polling ``/monitor`` is free of observer effects.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.monitor.controller import MonitorController

#: Quantile bounds reported for the disagreement histogram.
_QUANTILES = (0.5, 0.95, 0.99)


def _histogram_view(registry: MetricsRegistry, name: str) -> "dict | None":
    histogram = registry.histograms.get(name)
    if histogram is None or not histogram.count:
        return None
    return {
        **histogram.summary(),
        **{f"p{int(q * 100)}": histogram.quantile(q) for q in _QUANTILES},
    }


def monitor_snapshot(
    registry: MetricsRegistry,
    controller: "MonitorController | None" = None,
) -> dict[str, Any]:
    """The ``/monitor`` payload: counters always, estimator when attached."""
    payload: dict[str, Any] = {
        "attached": controller is not None,
        "counters": {
            name: counter.value
            for name, counter in sorted(registry.counters.items())
            if name.startswith("monitor.")
        },
        "disagreement": _histogram_view(registry, "monitor.disagreement"),
    }
    if controller is None:
        return payload

    core = controller.core
    threshold = controller.config.detection_threshold
    modules = [
        {
            "module": module_id,
            "available": available,
            "posterior": posterior if available else None,
            "flagged": flagged,
        }
        for module_id, (available, posterior, flagged) in enumerate(
            zip(
                core.estimator.available[0].tolist(),
                core.estimator.posterior[0].tolist(),
                core.metrics.flagged[0].tolist(),
            )
        )
    ]
    summary = controller.summary()
    payload.update(
        {
            "detection_threshold": threshold,
            "modules": modules,
            "flagged": [m["module"] for m in modules if m["flagged"]],
            "policy": {
                "name": controller.config.policy,
                "passive": not controller.drives_clock,
                "budget_tokens": int(core.tokens[0]),
            },
            "summary": {
                **asdict(summary),
                "false_trigger_rate": summary.false_trigger_rate,
                "detection_rate": summary.detection_rate,
            },
        }
    )
    return payload
