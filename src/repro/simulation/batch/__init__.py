"""Vectorized batch simulation runtime (ROADMAP item 4).

Public surface:

* :func:`~repro.simulation.batch.runtime.simulate_batch` — the numpy
  firehose: thousands of replica groups per chunk, millions of
  simulated requests per second, online monitoring by one
  :class:`~repro.monitor.core.HealthMonitor` per chunk (the same core
  :class:`~repro.monitor.controller.MonitorController` drives at
  groups=1).
* :func:`~repro.simulation.batch.reference.simulate_reference` — the
  scalar interpreter of the same semantics through the trusted
  event-loop components; the differential suite proves the two
  identical on every shared seed schedule.
* :class:`~repro.simulation.batch.runtime.BatchConfig` /
  ``BatchMonitorConfig`` (:class:`~repro.monitor.policies.MonitorConfig`)
  — the picklable run descriptions; ``BatchMonitorReport`` is
  :class:`~repro.monitor.metrics.MonitorReport`.
"""

from repro.simulation.batch.monitor import (
    BatchMonitorConfig,
    BatchMonitorReport,
)
from repro.simulation.batch.reference import simulate_reference
from repro.simulation.batch.runtime import (
    BatchConfig,
    BatchReport,
    simulate_batch,
)
from repro.simulation.batch.schedule import (
    SeedSchedule,
    stationary_census_table,
)
from repro.simulation.batch.voter import (
    BatchTally,
    classify_worst_case,
    tally_rounds,
)

__all__ = [
    "BatchConfig",
    "BatchMonitorConfig",
    "BatchMonitorReport",
    "BatchReport",
    "BatchTally",
    "SeedSchedule",
    "classify_worst_case",
    "simulate_batch",
    "simulate_reference",
    "stationary_census_table",
    "tally_rounds",
]
