"""The executable N-version perception system.

The paper's models are analytic; its stated future work is to
"experimentally analyze our proposed approach in perception and other
systems".  This package is that executable counterpart:

* :func:`~repro.simulation.batch.simulate_batch` — the perception
  simulator: replica groups of simulated ML modules on a round grid,
  with the DSPN's Tc/Tf/Tr fault channels, the rejuvenation clock of
  Fig. 2(b), BFT-threshold voting over real labels and the online
  health monitor, vectorized over groups;
* :func:`~repro.simulation.batch.simulate_reference` — the scalar
  interpreter of the same semantics, the batch's bit-exact witness;
* :class:`~repro.simulation.modules.MLModule` — the module state
  machine (healthy/compromised/failed/rejuvenating) the reference
  steps through;
* :class:`~repro.simulation.voter.Voter` — the scalar voter with
  worst-case (analytic-model-faithful) or per-label agreement;
* :class:`~repro.simulation.campaigns.AttackCampaign` — time-varying
  compromise pressure;
* :mod:`~repro.simulation.trace` — the measured census against the
  analytic π, and consecutive-error bursts.

The integration tests drive the batch with Table II parameters and
check that the measured reliability and census agree with the analytic
E[R_sys] and π.
"""

from repro.simulation.campaigns import AttackCampaign, AttackWave
from repro.simulation.modules import MLModule, ModuleState, module_census
from repro.simulation.voter import AgreementModel, VoteOutcome, Voter

#: Names resolved lazily (PEP 562): the batch package pulls in the
#: monitor layer, which itself imports this package's submodules — an
#: eager import here would close that cycle.
_BATCH_EXPORTS = frozenset(
    {
        "BatchConfig",
        "BatchMonitorConfig",
        "BatchReport",
        "round_grid",
        "simulate_batch",
        "simulate_reference",
    }
)
_TRACE_EXPORTS = frozenset(
    {"OccupancyComparison", "compare_with_analytic", "error_bursts"}
)


def __getattr__(name: str):
    if name in _BATCH_EXPORTS:
        from repro.simulation import batch

        return getattr(batch, name)
    if name in _TRACE_EXPORTS:
        from repro.simulation import trace

        return getattr(trace, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AgreementModel",
    "AttackCampaign",
    "AttackWave",
    "BatchConfig",
    "BatchMonitorConfig",
    "BatchReport",
    "MLModule",
    "ModuleState",
    "OccupancyComparison",
    "VoteOutcome",
    "Voter",
    "compare_with_analytic",
    "error_bursts",
    "module_census",
    "round_grid",
    "simulate_batch",
    "simulate_reference",
]
