"""The perception simulator: vectorized batch runtime and its witness.

Public surface:

* :func:`~repro.simulation.batch.runtime.simulate_batch` — the one
  perception simulator, from a single replica group (``groups=1``, the
  policy shoot-out of :mod:`repro.experiments.monitor`) to thousands
  per chunk at millions of simulated requests per second, with online
  monitoring by one :class:`~repro.monitor.core.HealthMonitor` per
  chunk;
* :func:`~repro.simulation.batch.reference.simulate_reference` — the
  scalar interpreter of the same semantics through the module state
  machine, the scalar voter and the one-group
  :class:`~repro.monitor.controller.MonitorController`; the
  differential suite proves the two identical on every shared seed
  schedule;
* :func:`~repro.simulation.batch.runtime.round_grid` — seconds of
  horizon and warm-up to whole rounds, rejecting spans off the grid.
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
    round_grid,
    simulate_batch,
)
from repro.simulation.batch.schedule import (
    SeedSchedule,
    stationary_census_table,
)
from repro.simulation.batch.voter import (
    BatchTally,
    classify_per_label,
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
    "classify_per_label",
    "classify_worst_case",
    "round_grid",
    "simulate_batch",
    "simulate_reference",
    "stationary_census_table",
    "tally_rounds",
]
