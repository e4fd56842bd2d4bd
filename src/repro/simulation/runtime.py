"""The composed perception runtime: modules + faults + voter + rejuvenation.

:class:`PerceptionRuntime` executes the full architecture of the paper's
Fig. 1 as a discrete-event simulation.  Perception requests arrive
periodically; each operational module answers, healthy modules err with
the dependent model (probability ``p``, dependency ``alpha``),
compromised modules err independently with ``p'``; the voter classifies
the request; faults, repairs and the rejuvenation clock evolve the
module states between requests.

The empirical output reliability over the run,

* safe-skip:       1 - (#errors / #requests)
* strict-correct:  #correct / #requests

is directly comparable with the analytic E[R_sys] of
:func:`repro.perception.evaluation.evaluate` — the integration tests
assert agreement within sampling error.

A :class:`~repro.monitor.controller.MonitorController` can be attached
via the ``monitor`` argument.  The runtime then feeds it every vote
round and every module-state transition through observer hooks, and —
when the controller's policy is active — executes the rejuvenation
commands it returns instead of running the built-in periodic clock.
The monitor's prior hazards follow the runtime's ``fault_semantics``.
With a *passive* policy the monitor observes without perturbing the
event or RNG streams, so monitored and unmonitored runs with the same
seed produce identical traces.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.perception.parameters import PerceptionParameters
from repro.simulation.faults import FaultInjector, FaultSemantics
from repro.simulation.modules import MLModule, ModuleState, module_census
from repro.simulation.rejuvenator import Rejuvenator
from repro.simulation.trace import StateOccupancy
from repro.simulation.voter import AgreementModel, VoteOutcome, Voter
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.monitor.controller import MonitorController
    from repro.simulation.campaigns import AttackCampaign


@dataclass(frozen=True)
class RuntimeReport:
    """Measured outcome counts and empirical reliability of one run.

    ``occupancy`` (present when the run was started with
    ``collect_occupancy=True``) holds the per-census dwell times for
    comparison against the analytic stationary distribution via
    :func:`repro.simulation.trace.compare_with_analytic`.
    """

    requests: int
    correct: int
    errors: int
    inconclusive: int
    duration: float
    occupancy: "StateOccupancy | None" = None
    #: Length of the longest run of *consecutive* erroneous outputs.
    #: Safety-relevant beyond the error rate: a vehicle survives one
    #: misperceived frame far more easily than twenty in a row.
    longest_error_burst: int = 0
    #: Histogram {burst_length: count} of maximal consecutive-error runs.
    error_bursts: dict[int, int] | None = None
    #: RNG seed the runtime was constructed with (``None`` means the
    #: run is not reproducible); recorded so traces are auditable.
    seed: int | None = None

    @property
    def reliability_safe_skip(self) -> float:
        """1 - error fraction (the paper's convention)."""
        return 1.0 - self.errors / self.requests if self.requests else 1.0

    @property
    def reliability_strict(self) -> float:
        """Correct fraction."""
        return self.correct / self.requests if self.requests else 0.0


class PerceptionRuntime:
    """Executable N-version perception system (Fig. 1).

    Parameters
    ----------
    parameters:
        The Table II configuration; ``rejuvenation`` toggles the clock.
    request_period:
        Seconds between perception requests (cameras/lidars produce
        frames at a fixed rate; 0.1 s ≈ 10 Hz).
    agreement:
        Voting agreement model (worst-case matches the analytic model).
    fault_semantics:
        Channel (single-server, calibrated) or per-module scaling.
    monitor:
        Optional :class:`~repro.monitor.controller.MonitorController`
        observing every round and transition; active policies take over
        the rejuvenation clock.
    """

    def __init__(
        self,
        parameters: PerceptionParameters,
        *,
        request_period: float = 0.1,
        agreement: AgreementModel = AgreementModel.WORST_CASE,
        fault_semantics: FaultSemantics = FaultSemantics.CHANNEL,
        n_labels: int = 43,
        seed: int | None = None,
        campaign: "AttackCampaign | None" = None,
        monitor: "MonitorController | None" = None,
    ) -> None:
        self.parameters = parameters
        self.request_period = check_positive("request_period", request_period)
        if n_labels < 2:
            raise SimulationError(f"need >= 2 labels, got {n_labels}")
        self.n_labels = int(n_labels)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.monitor = monitor
        if monitor is not None:
            if monitor.parameters.n_modules != parameters.n_modules:
                raise SimulationError(
                    f"monitor expects {monitor.parameters.n_modules} modules, "
                    f"runtime has {parameters.n_modules}"
                )
            if monitor.drives_clock and not parameters.rejuvenation:
                raise SimulationError(
                    "an active monitoring policy needs the rejuvenation "
                    "machinery; enable parameters.rejuvenation"
                )
        self.modules = [MLModule(i) for i in range(parameters.n_modules)]
        self.injector = FaultInjector(
            lambda_c=parameters.lambda_c,
            lambda_f=parameters.lambda_f,
            mu=parameters.mu,
            semantics=fault_semantics,
        )
        self.voter = Voter(parameters.voting_scheme, agreement=agreement)
        self.campaign = campaign
        self.rejuvenator = (
            Rejuvenator(
                interval=parameters.rejuvenation_interval,
                r=parameters.r,
                time_per_module=parameters.rejuvenation_time_per_module,
            )
            if parameters.rejuvenation
            else None
        )

    # ------------------------------------------------------------------
    # per-request perception
    # ------------------------------------------------------------------
    def _module_outputs(self, ground_truth: int) -> list[int | None]:
        """Sample one output per module under the paper's failure models.

        Healthy errors follow the generative form of the normalized
        dependent model: with probability ``p`` a leader error occurs
        and every *other* healthy module errs with probability
        ``alpha``.  Dependent errors are common-mode (the same
        misleading input fools correlated models the same way), so all
        erring healthy modules emit one shared wrong label.  Compromised
        modules err independently with ``p'`` and — their outputs being
        essentially random — each draws its *own* wrong label.  Under
        the worst-case voter the label values are irrelevant (only the
        error counts matter, matching the analytic model); under the
        per-label voter the disagreement among compromised modules
        matters and fewer errors reach the threshold.
        """
        p = self.parameters.p
        p_prime = self.parameters.p_prime
        alpha = self.parameters.alpha

        def random_wrong_label() -> int:
            return int(
                (ground_truth + 1 + self.rng.integers(self.n_labels - 1))
                % self.n_labels
            )

        common_mode_label = random_wrong_label()

        healthy = [m for m in self.modules if m.state is ModuleState.HEALTHY]
        erring: set[int] = set()
        if healthy and self.rng.random() < p:
            leader = healthy[self.rng.integers(len(healthy))]
            erring.add(leader.module_id)
            for module in healthy:
                if module.module_id != leader.module_id and self.rng.random() < alpha:
                    erring.add(module.module_id)

        outputs: list[int | None] = []
        for module in self.modules:
            if module.state is ModuleState.HEALTHY:
                outputs.append(
                    common_mode_label if module.module_id in erring else ground_truth
                )
            elif module.state is ModuleState.COMPROMISED:
                outputs.append(
                    random_wrong_label()
                    if self.rng.random() < p_prime
                    else ground_truth
                )
            else:
                outputs.append(None)
        return outputs

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(
        self,
        duration: float,
        *,
        warmup: float = 0.0,
        collect_occupancy: bool = False,
    ) -> RuntimeReport:
        """Simulate ``duration`` seconds (after ``warmup``) and measure.

        Events: perception requests (periodic), fault/repair events
        (exponential), rejuvenation ticks (periodic) and rejuvenation
        completions (exponential).  A lightweight priority queue with a
        monotonically increasing sequence breaks ties deterministically.

        With ``collect_occupancy`` the report also carries the measured
        per-state dwell times (see :mod:`repro.simulation.trace`).
        """
        check_positive("duration", duration)
        end = warmup + duration
        counter = itertools.count()
        queue: list[tuple[float, int, str, object]] = []
        occupancy = StateOccupancy(seed=self.seed) if collect_occupancy else None
        occupancy_clock = warmup
        if self.monitor is not None:
            self.monitor.begin_run(self.injector.semantics)
        monitor_drives = self.monitor is not None and self.monitor.drives_clock

        def record_dwell(up_to: float) -> None:
            nonlocal occupancy_clock
            if occupancy is None:
                return
            effective = min(up_to, end)
            if effective > occupancy_clock:
                occupancy.record(
                    module_census(self.modules), effective - occupancy_clock
                )
                occupancy_clock = effective

        def push(time: float, kind: str, payload: object = None) -> None:
            heapq.heappush(queue, (time, next(counter), kind, payload))

        self._fault_version = 0
        push(self.request_period, "request")
        self._schedule_fault(push, 0.0)
        if self.rejuvenator is not None:
            # an active monitor replaces the built-in clock: same tick
            # grid, but selection/timing decisions come from the policy
            push(
                self.rejuvenator.next_tick_after(0.0),
                "monitor-tick" if monitor_drives else "tick",
            )
        if self.campaign is not None:
            for boundary in self.campaign.boundaries():
                if 0.0 < boundary <= end:
                    push(boundary, "campaign-boundary")

        requests = correct = errors = inconclusive = 0
        current_burst = 0
        bursts: dict[int, int] = {}

        def close_burst() -> None:
            nonlocal current_burst
            if current_burst > 0:
                bursts[current_burst] = bursts.get(current_burst, 0) + 1
                current_burst = 0

        now = 0.0
        while queue:
            now, _, kind, payload = heapq.heappop(queue)
            if now > end:
                break
            if kind != "request":
                # state may change below: close the dwell interval first
                record_dwell(now)
            if kind == "request":
                truth = int(self.rng.integers(self.n_labels))
                outputs = self._module_outputs(truth)
                if self.monitor is None:
                    outcome = self.voter.decide(outputs, truth)
                else:
                    tally = self.voter.tally(outputs, truth)
                    outcome = self.voter.classify(tally)
                if now > warmup:
                    requests += 1
                    if outcome is VoteOutcome.CORRECT:
                        correct += 1
                        close_burst()
                    elif outcome is VoteOutcome.ERROR:
                        errors += 1
                        current_burst += 1
                    else:
                        inconclusive += 1
                        close_burst()
                if self.monitor is not None:
                    commands = self.monitor.observe_round(
                        now, outputs, tally, outcome
                    )
                    if commands:
                        record_dwell(now)
                        self._start_commanded(push, now, commands)
                push(now + self.request_period, "request")
            elif kind == "fault":
                event_kind, version = payload  # type: ignore[misc]
                if version != self._fault_version:
                    continue  # superseded by a resample after a state change
                module = self.injector.apply(event_kind, self.modules, self.rng)
                self._notify(now, module, event_kind)
                if self.rejuvenator is not None and not monitor_drives:
                    started = self.rejuvenator.apply_pending(self.modules, self.rng)
                    self._schedule_completion(push, now, started)
                self._schedule_fault(push, now)
            elif kind == "tick":
                assert self.rejuvenator is not None
                started = self.rejuvenator.on_tick(self.modules, self.rng)
                self._schedule_completion(push, now, started)
                push(self.rejuvenator.next_tick_after(now), "tick")
                if started:
                    self._schedule_fault(push, now)
            elif kind == "monitor-tick":
                assert self.monitor is not None and self.rejuvenator is not None
                commands = self.monitor.on_tick(
                    now, [m.is_operational for m in self.modules]
                )
                self._start_commanded(push, now, commands)
                push(self.rejuvenator.next_tick_after(now), "monitor-tick")
            elif kind == "campaign-boundary":
                # the compromise rate just changed: redraw the fault event
                self._schedule_fault(push, now)
            elif kind == "rejuvenation-done":
                module = payload  # type: ignore[assignment]
                if module.state is ModuleState.REJUVENATING:
                    module.finish_rejuvenation()
                    self._notify(now, module, "rejuvenation-done")
                if self.rejuvenator is not None and not monitor_drives:
                    started = self.rejuvenator.apply_pending(self.modules, self.rng)
                    self._schedule_completion(push, now, started)
                self._schedule_fault(push, now)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind!r}")

        record_dwell(end)
        close_burst()
        return RuntimeReport(
            requests=requests,
            correct=correct,
            errors=errors,
            inconclusive=inconclusive,
            duration=duration,
            occupancy=occupancy,
            longest_error_burst=max(bursts, default=0),
            error_bursts=bursts,
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    # event helpers
    # ------------------------------------------------------------------
    def _schedule_fault(self, push, now: float) -> None:
        """(Re)sample the next fault event from the memoryless processes.

        Because all fault processes are exponential, discarding the
        pending sample and redrawing whenever the module-state census
        changes is statistically exact (memorylessness), and keeps the
        queue to one outstanding fault event.  A version counter marks
        superseded events so they are skipped when popped.
        """
        self._fault_version += 1
        compromise_scale = (
            self.campaign.multiplier_at(now) if self.campaign is not None else 1.0
        )
        sampled = self.injector.next_event(
            self.modules, self.rng, compromise_scale=compromise_scale
        )
        if sampled is None:
            return
        delay, kind = sampled
        push(now + delay, "fault", (kind, self._fault_version))

    def _schedule_completion(self, push, now: float, started: list[MLModule]) -> None:
        for module in started:
            self._notify(now, module, "rejuvenation-start")
            batch = sum(
                1 for m in self.modules if m.state is ModuleState.REJUVENATING
            )
            push(
                now + self.rejuvenator.completion_delay(batch, self.rng),
                "rejuvenation-done",
                module,
            )

    def _start_commanded(self, push, now: float, commands: list[int]) -> None:
        """Execute the monitor's rejuvenation commands.

        The controller already enforced the budget; the runtime enforces
        guard g2 (never more than ``r`` modules failed or rejuvenating)
        and operational state as the final authority, silently dropping
        commands the guard forbids.
        """
        started: list[MLModule] = []
        for module_id in commands:
            if self.rejuvenator._budget_used(self.modules) >= self.parameters.r:
                break
            module = self.modules[module_id]
            if not module.is_operational:
                continue
            module.start_rejuvenation()
            started.append(module)
        self._schedule_completion(push, now, started)
        if started:
            self._schedule_fault(push, now)

    def _notify(self, now: float, module: MLModule, event: str) -> None:
        """Stream a ground-truth transition to the attached monitor."""
        if self.monitor is not None:
            self.monitor.notify_transition(now, module.module_id, event)
