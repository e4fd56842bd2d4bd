"""Runtime reliability monitoring and adaptive rejuvenation control.

The paper's rejuvenation clock is open-loop: it fires every 1/γ and
picks victims uniformly because the mechanism "cannot tell healthy from
compromised apart" (Fig. 2c).  This package closes the loop, once, over
``(groups, n_modules)`` arrays:

* :mod:`~repro.monitor.signals` — the per-round disagreement signal
  (who participated, who deviated from the plurality);
* :mod:`~repro.monitor.estimator` — an online Bayesian filter over each
  module's hidden healthy/compromised state, with the DSPN's own rates
  (Tc/Tf) as prior dynamics and the deviation flags as likelihood;
* :mod:`~repro.monitor.policies` — the validated options
  (:class:`MonitorConfig`: the paper's blind ``periodic`` baseline, the
  posterior-ranked ``targeted`` and the adaptive ``threshold`` policy,
  on equal token-bucket budgets) and the one selection rule;
* :mod:`~repro.monitor.metrics` — the ground-truth ledger: detection
  latency, censoring, false alarms and false triggers;
* :mod:`~repro.monitor.core` — :class:`HealthMonitor`, the loop itself,
  driven by the batch runtime for thousands of replica groups at once;
* :mod:`~repro.monitor.controller` — :class:`MonitorController`, its
  one-group scalar adapter (the reference interpreter's and
  ``/monitor``'s), which adds the per-module events and a rolling
  reliability window.

Quickstart::

    from repro.monitor import MonitorConfig
    from repro.simulation import BatchConfig, simulate_batch

    report = simulate_batch(BatchConfig(
        parameters=params, groups=1, rounds=86400, request_period=1.0,
        seed=7, monitor=MonitorConfig(mode="threshold", bound=0.9),
    ))
    print(report.monitor.summary().render())
"""

from repro.monitor.controller import MonitorController
from repro.monitor.core import HealthMonitor
from repro.monitor.estimator import (
    HealthEstimator,
    deviation_likelihoods,
    healthy_deviation_probability,
    per_module_compromise_rate,
)
from repro.monitor.metrics import (
    MonitorMetrics,
    MonitorReport,
    MonitorSummary,
    merge_monitor_reports,
)
from repro.monitor.policies import (
    MONITOR_MODES,
    POLICY_NAMES,
    MonitorConfig,
    make_policy,
    select_rejuvenations,
)
from repro.monitor.signals import RoundSignal, round_signal

__all__ = [
    "HealthEstimator",
    "HealthMonitor",
    "MONITOR_MODES",
    "MonitorConfig",
    "MonitorController",
    "MonitorMetrics",
    "MonitorReport",
    "MonitorSummary",
    "POLICY_NAMES",
    "RoundSignal",
    "deviation_likelihoods",
    "healthy_deviation_probability",
    "make_policy",
    "merge_monitor_reports",
    "per_module_compromise_rate",
    "round_signal",
    "select_rejuvenations",
]
