"""Scalar reference interpreter for the batch semantics.

This is the trusted half of the equivalence proof: it executes the
exact round semantics of
:func:`~repro.simulation.batch.runtime.simulate_batch` — same phases,
same :class:`~repro.simulation.batch.schedule.SeedSchedule` draws, same
shared probability helpers — but one group, one module, one event at a
time, *through the existing scalar components*:

* module state transitions via
  :class:`~repro.simulation.modules.MLModule`'s guarded state machine,
* vote tallying/classification via
  :class:`~repro.simulation.voter.Voter` under the config's agreement
  model,
* the census via :func:`~repro.simulation.modules.module_census`,
* monitoring via one
  :class:`~repro.monitor.controller.MonitorController` per group — the
  scalar adapter around a one-group health monitor.

Any divergence between :func:`simulate_reference` and
:func:`simulate_batch` on the same :class:`BatchConfig` is therefore a
vectorization bug.  The interpreter is deliberately slow (pure python
loops); drive it with small configurations only.
"""

from __future__ import annotations

import time as _time

import numpy as np

from repro.monitor.controller import MonitorController
from repro.obs.metrics import active_registry, registry_override
from repro.simulation.batch.monitor import (
    BatchMonitorReport,
    merge_monitor_reports,
)
from repro.simulation.batch.runtime import (
    TRANSITION_KINDS,
    BatchConfig,
    BatchReport,
)
from repro.simulation.batch.schedule import (
    CHANNEL_ORDER,
    STATE_COMPROMISED,
    STATE_FAILED,
    STATE_HEALTHY,
    SeedSchedule,
    channel_probabilities,
    completion_probabilities,
    sample_initial_states,
    wrong_labels,
)
from repro.simulation.batch.voter import CODE_OF_OUTCOME
from repro.simulation.modules import MLModule, ModuleState, module_census
from repro.simulation.voter import Voter

_STATE_OF_CODE = {
    STATE_HEALTHY: ModuleState.HEALTHY,
    STATE_COMPROMISED: ModuleState.COMPROMISED,
    STATE_FAILED: ModuleState.FAILED,
}

_CHANNEL_SOURCE = {
    "compromise": ModuleState.HEALTHY,
    "fail": ModuleState.COMPROMISED,
    "repair": ModuleState.FAILED,
}

_CHANNEL_APPLY = {
    "compromise": MLModule.compromise,
    "fail": MLModule.fail,
    "repair": MLModule.repair,
}


class _ReferenceGroup:
    """One replica group, interpreted with the scalar components."""

    def __init__(self, config: BatchConfig, initial: np.ndarray) -> None:
        params = config.parameters
        self.config = config
        self.params = params
        self.modules = [
            MLModule(module_id=m, state=_STATE_OF_CODE[int(initial[m])])
            for m in range(params.n_modules)
        ]
        self.voter = Voter(params.voting_scheme, agreement=config.agreement)
        self.completion_q = [0.0] * params.n_modules
        self.completion_by_batch = completion_probabilities(
            params, config.request_period
        )
        self.pending = 0
        self.transitions = {kind: 0 for kind in TRANSITION_KINDS}
        self.rejuvenations: "list[int]" = []
        self.controller = (
            MonitorController(params, config.monitor)
            if config.monitor is not None
            else None
        )

    # -- helpers -------------------------------------------------------
    def _budget_used(self) -> int:
        return sum(1 for m in self.modules if not m.is_operational)

    def _notify(self, now: float, module_id: int, kind: str) -> None:
        self.transitions[kind] += 1
        if self.controller is not None:
            self.controller.notify_transition(now, module_id, kind)

    def _start(self, module_id: int, now: float) -> None:
        self.modules[module_id].start_rejuvenation()
        self._notify(now, module_id, "rejuvenation-start")
        self.rejuvenations.append(module_id)

    def _assign_completions(self, started: "list[int]") -> None:
        batch = sum(
            1 for m in self.modules if m.state is ModuleState.REJUVENATING
        )
        for module_id in started:
            self.completion_q[module_id] = float(
                self.completion_by_batch[batch]
            )

    # -- the four phases ----------------------------------------------
    def run_round(self, k: int, draws, gi: int, census: np.ndarray) -> int:
        """Run round ``k``; count the census into ``census`` when the
        round is measured."""
        config = self.config
        params = self.params
        now = (k + 1) * config.request_period

        # phase A: rejuvenation completions
        for m, module in enumerate(self.modules):
            if module.state is ModuleState.REJUVENATING and (
                draws.u_done[gi, m] < self.completion_q[m]
            ):
                module.finish_rejuvenation()
                self.completion_q[m] = 0.0
                self._notify(now, m, "rejuvenation-done")

        # phase B: fault channels
        multiplier = (
            config.campaign.multiplier_at(k * config.request_period)
            if config.campaign is not None
            else 1.0
        )
        probabilities = channel_probabilities(
            params, config.request_period, multiplier
        )
        for channel, kind in enumerate(CHANNEL_ORDER):
            eligible = [
                m
                for m, module in enumerate(self.modules)
                if module.state is _CHANNEL_SOURCE[kind]
            ]
            if eligible and (
                draws.u_channel[gi, channel] < probabilities[channel]
            ):
                victim = eligible[
                    int(draws.u_victim[gi, channel] * len(eligible))
                ]
                _CHANNEL_APPLY[kind](self.modules[victim])
                self._notify(now, victim, kind)

        # phase C: the rejuvenation clock
        drives = self.controller is not None and self.controller.drives_clock
        if params.rejuvenation:
            is_tick = (k + 1) % config.ticks_every == 0
            if drives:
                if is_tick:
                    operational = [m.is_operational for m in self.modules]
                    commands = self.controller.on_tick(now, operational)
                    started = []
                    for module_id in commands:
                        # guard g2, re-checked live before every start
                        if self._budget_used() >= params.r:
                            break
                        if not self.modules[module_id].is_operational:
                            continue
                        self._start(module_id, now)
                        started.append(module_id)
                    self._assign_completions(started)
            else:
                if is_tick:
                    rejuvenating = sum(
                        1
                        for m in self.modules
                        if m.state is ModuleState.REJUVENATING
                    )
                    if rejuvenating == 0 and self.pending == 0:
                        self.pending = params.r
                if self.pending > 0:
                    candidates = sorted(
                        (
                            m
                            for m, module in enumerate(self.modules)
                            if module.is_operational
                        ),
                        key=lambda m: (draws.u_select[gi, m], m),
                    )
                    started = []
                    while (
                        self.pending > 0
                        and self._budget_used() < params.r
                        and candidates
                    ):
                        module_id = candidates.pop(0)
                        self._start(module_id, now)
                        self.pending -= 1
                        started.append(module_id)
                    self._assign_completions(started)

        # phase D: the perception request
        if k >= config.warmup_rounds:
            counts = module_census(self.modules)
            census[counts.healthy, counts.compromised] += 1
        truth = int(draws.u_truth[gi] * config.n_labels)
        common = int(wrong_labels(truth, draws.u_common[gi], config.n_labels))
        healthy = [
            m
            for m, module in enumerate(self.modules)
            if module.state is ModuleState.HEALTHY
        ]
        error_event = bool(healthy) and draws.u_error[gi] < params.p
        leader = (
            healthy[int(draws.u_leader[gi] * len(healthy))]
            if error_event
            else None
        )
        outputs: "list[int | None]" = []
        for m, module in enumerate(self.modules):
            if module.state is ModuleState.HEALTHY:
                errs = error_event and (
                    m == leader or draws.u_alpha[gi, m] < params.alpha
                )
                outputs.append(common if errs else truth)
            elif module.state is ModuleState.COMPROMISED:
                if draws.u_comp_err[gi, m] < params.p_prime:
                    outputs.append(
                        int(
                            wrong_labels(
                                truth,
                                draws.u_comp_label[gi, m],
                                config.n_labels,
                            )
                        )
                    )
                else:
                    outputs.append(truth)
            else:
                outputs.append(None)
        tally = self.voter.tally(outputs, truth)
        outcome = self.voter.classify(tally)
        if self.controller is not None:
            commands = self.controller.observe_round(
                now, outputs, tally, outcome
            )
            started = []
            for module_id in commands:
                if self._budget_used() >= params.r:
                    break
                if not self.modules[module_id].is_operational:
                    continue
                self._start(module_id, now)
                started.append(module_id)
            self._assign_completions(started)
        return CODE_OF_OUTCOME[outcome]


def simulate_reference(config: BatchConfig) -> BatchReport:
    """Interpret the batch semantics with the scalar components."""
    from repro.simulation.batch.voter import (
        OUTCOME_CORRECT,
        OUTCOME_ERROR,
        OUTCOME_INCONCLUSIVE,
    )

    schedule = SeedSchedule(config.seed, config.parameters.n_modules)
    started_at = _time.perf_counter()
    chunk_outcomes: "list[np.ndarray]" = []
    chunk_transitions: "list[dict[str, np.ndarray]]" = []
    chunk_monitors: "list[BatchMonitorReport]" = []
    n = config.parameters.n_modules
    census = np.zeros((n + 1, n + 1), dtype=np.int64)
    rejuvenation_list: "list[tuple[int, int, int]]" = []
    snapshots = []
    for chunk_index in range(config.chunk_count):
        g = config.chunk_groups(chunk_index)
        offset = chunk_index * config.chunk_size
        initial = sample_initial_states(
            config.initial_census,
            schedule.init_draws(chunk_index, g),
            config.parameters.n_modules,
        )
        with registry_override() as registry:
            groups = [
                _ReferenceGroup(config, initial[gi]) for gi in range(g)
            ]
            outcomes = np.zeros((config.rounds, g), dtype=np.int8)
            for k in range(config.rounds):
                draws = schedule.round_draws(chunk_index, k, g)
                for gi, group in enumerate(groups):
                    before = len(group.rejuvenations)
                    outcomes[k, gi] = group.run_round(k, draws, gi, census)
                    for module_id in group.rejuvenations[before:]:
                        rejuvenation_list.append(
                            (k, offset + gi, module_id)
                        )
            if config.monitor is not None:
                chunk_monitors.append(
                    merge_monitor_reports(
                        [group.controller.core.report() for group in groups]
                    )
                )
        snapshots.append(registry.snapshot())
        chunk_outcomes.append(outcomes)
        chunk_transitions.append(
            {
                kind: np.array(
                    [group.transitions[kind] for group in groups],
                    dtype=np.int64,
                )
                for kind in TRANSITION_KINDS
            }
        )
    registry = active_registry()
    for snapshot in snapshots:
        registry.merge(snapshot)

    outcomes = np.concatenate(chunk_outcomes, axis=1)
    measured = outcomes[config.warmup_rounds :]
    per_group_correct = (measured == OUTCOME_CORRECT).sum(axis=0)
    per_group_errors = (measured == OUTCOME_ERROR).sum(axis=0)
    per_group_inconclusive = (measured == OUTCOME_INCONCLUSIVE).sum(axis=0)
    transitions = {
        kind: np.concatenate([chunk[kind] for chunk in chunk_transitions])
        for kind in TRANSITION_KINDS
    }
    wall = _time.perf_counter() - started_at
    measured_rounds = config.rounds - config.warmup_rounds
    requests = measured_rounds * config.groups
    total = config.rounds * config.groups
    rejuvenation_list.sort()
    return BatchReport(
        groups=config.groups,
        rounds=config.rounds,
        warmup_rounds=config.warmup_rounds,
        requests=requests,
        correct=int(per_group_correct.sum()),
        errors=int(per_group_errors.sum()),
        inconclusive=int(per_group_inconclusive.sum()),
        duration=measured_rounds * config.request_period,
        seed=config.seed,
        jobs=1,
        wall_seconds=wall,
        throughput=total / wall if wall > 0 else float("inf"),
        per_group_correct=per_group_correct.astype(np.int64),
        per_group_errors=per_group_errors.astype(np.int64),
        per_group_inconclusive=per_group_inconclusive.astype(np.int64),
        transitions=transitions,
        census=census,
        outcomes=outcomes if config.record_outcomes else None,
        rejuvenations=(
            tuple(rejuvenation_list)
            if config.record_rejuvenations
            else None
        ),
        monitor=(
            merge_monitor_reports(chunk_monitors)
            if config.monitor is not None
            else None
        ),
    )
