"""The batch runtime's names for the health monitor's config and report.

The monitor itself is :class:`repro.monitor.core.HealthMonitor`, which
the batch runtime drives over each chunk's ``(groups, n_modules)``
arrays; these aliases keep the batch vocabulary.
"""

from repro.monitor.metrics import MonitorReport as BatchMonitorReport
from repro.monitor.metrics import merge_monitor_reports
from repro.monitor.policies import MonitorConfig as BatchMonitorConfig

__all__ = [
    "BatchMonitorConfig",
    "BatchMonitorReport",
    "merge_monitor_reports",
]
