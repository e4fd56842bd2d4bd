"""Numpy-vectorized batch perception runtime.

:func:`simulate_batch` is the perception simulator: it advances one to
*thousands of independent replica groups* on a fixed round grid with
array operations — millions of simulated perception requests per
second on one core, with the :mod:`repro.monitor` estimator consuming
the stream online.  The continuous-time witness of the same system is
:func:`repro.dspn.simulate` on the net.

Semantics: time is discretized into rounds of ``request_period``
seconds.  Round ``k`` covers ``(k·dt, (k+1)·dt]`` and executes four
phases at ``t = (k+1)·dt``, each consuming its declared slice of the
:class:`~repro.simulation.batch.schedule.SeedSchedule` block:

A. **rejuvenation completions** — every rejuvenating module finishes
   within the step with the exponential step probability of its batch's
   mean (:func:`~repro.simulation.batch.schedule.completion_probabilities`);
B. **fault channels** — Tc, Tf, Tr evaluated in order on the state the
   previous channel left, one shared channel per kind (the net's
   single-server semantics), victim uniform among eligible modules in
   id order;
C. **rejuvenation clock** — the built-in periodic clock (guard g1 at
   tick rounds, pending starts applied under guard g2 every round,
   victims by smallest selection key), or, when an active monitor mode
   drives the clock, budget accrual + policy commands at tick rounds;
D. **the request** — the census count, the dependent error model
   (healthy errors share one wrong label, compromised ones draw their
   own), the vote classification of ``config.agreement``, monitor
   observation, and (threshold mode) between-tick policy firings.

A round pays per event, not per module.  Each chunk keeps a
``(4, groups)`` count of its healthy, compromised, failed and
rejuvenating modules; every transition updates ``state`` and the
counts together, so the counts always equal a recount of ``state``
(:func:`recount_states`) and no phase recounts.  Victims are drawn only
in groups whose channel fired, the error leader and its drag only in
error-event groups, and labels and the plurality tally only in
*contested* groups, where the wrong votes are at least as many as the
right ones.  Everywhere else the truth outvotes all wrong votes
together, so the counts settle the outcome under either agreement
model and the wrong voters are exactly the monitor's deviators.

The scalar reference interpreter
(:mod:`repro.simulation.batch.reference`) executes these same phases
element by element through the trusted scalar components over the same
schedule; ``tests/simulation/test_batch_differential.py`` proves the
two produce identical trajectories.

Groups are partitioned into fixed-size chunks.  The chunk is part of
the schedule's identity, so ``jobs`` only changes *where* a chunk runs
(inline or in a worker process), never what it computes; every chunk
runs through :func:`repro.engine.sweep.run_captured` and its metrics
(and any spans or events) fold back in chunk order, making ``jobs=1``
and ``jobs=4`` results identical.
"""

from __future__ import annotations

import functools
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.engine.sweep import capture_policy, run_captured
from repro.errors import SimulationError
from repro.monitor.core import HealthMonitor
from repro.obs import counter as obs_counter
from repro.obs import span
from repro.obs.events import emit as emit_event
from repro.perception.parameters import PerceptionParameters
from repro.simulation.batch.monitor import (
    BatchMonitorConfig,
    BatchMonitorReport,
    merge_monitor_reports,
)
from repro.simulation.batch.schedule import (
    CHANNEL_ORDER,
    STATE_COMPROMISED,
    STATE_FAILED,
    STATE_HEALTHY,
    STATE_REJUVENATING,
    CensusTable,
    SeedSchedule,
    channel_probabilities,
    completion_probabilities,
    sample_initial_states,
    stationary_census_table,
    wrong_labels,
)
from repro.simulation.batch.voter import (
    NO_OUTPUT,
    OUTCOME_CORRECT,
    OUTCOME_ERROR,
    OUTCOME_INCONCLUSIVE,
    classify_per_label,
    classify_worst_case,
    tally_rounds,
)
from repro.simulation.campaigns import AttackCampaign
from repro.simulation.voter import AgreementModel, check_vote_capacity

#: Ground-truth transition kinds, in their per-round phase order.
TRANSITION_KINDS = (
    "rejuvenation-done",
    "compromise",
    "fail",
    "repair",
    "rejuvenation-start",
)

#: The state each transition kind moves its module into.
_TARGET_OF_KIND = {
    "rejuvenation-done": STATE_HEALTHY,
    "compromise": STATE_COMPROMISED,
    "fail": STATE_FAILED,
    "repair": STATE_HEALTHY,
    "rejuvenation-start": STATE_REJUVENATING,
}

#: The state each fault channel (``CHANNEL_ORDER``) takes its victim from.
_CHANNEL_SOURCES = (STATE_HEALTHY, STATE_COMPROMISED, STATE_FAILED)


def round_grid(
    horizon: float, warmup: float, request_period: float
) -> "tuple[int, int]":
    """``(rounds, warmup_rounds)`` for ``horizon`` measured seconds after
    ``warmup`` seconds on a ``request_period`` grid.

    Both spans must be whole numbers of periods: a rounded grid would
    silently simulate a different run than the one asked for.
    """
    if not request_period > 0:
        raise SimulationError(
            f"request_period must be positive, got {request_period}"
        )
    if not horizon > 0:
        raise SimulationError(f"horizon must be positive, got {horizon}")
    if warmup < 0:
        raise SimulationError(f"warmup must be non-negative, got {warmup}")
    counts = []
    for name, seconds in (("horizon", horizon), ("warmup", warmup)):
        counts.append(_whole_periods(seconds, request_period))
        if counts[-1] is None:
            raise SimulationError(
                f"{name} {seconds:g} s is not a whole number of request "
                f"periods ({request_period:g} s)"
            )
    measured, warmup_rounds = counts
    return measured + warmup_rounds, warmup_rounds


def _whole_periods(seconds: float, period: float) -> "int | None":
    """``seconds / period`` when it is a whole number, else ``None``."""
    ratio = seconds / period
    count = round(ratio)
    return count if abs(ratio - count) <= 1e-9 * max(ratio, 1.0) else None


@dataclass(frozen=True)
class BatchConfig:
    """One batch simulation, fully specified and picklable.

    The trajectory is a pure function of this object: workers receive
    it verbatim and re-derive their chunk of the seed schedule from it.
    """

    parameters: PerceptionParameters
    groups: int
    rounds: int
    warmup_rounds: int = 0
    #: Seconds between perception requests (the round grid step).
    request_period: float = 0.1
    n_labels: int = 43
    seed: int = 0
    #: Groups per chunk — part of the schedule identity, NOT a tuning
    #: knob to vary per run: changing it changes the trajectory.
    chunk_size: int = 1024
    #: How wrong outputs pool votes: ``WORST_CASE`` (the analytic
    #: model's reading) or ``PER_LABEL`` (only identical labels pool).
    agreement: AgreementModel = AgreementModel.WORST_CASE
    campaign: AttackCampaign | None = None
    monitor: BatchMonitorConfig | None = None
    #: Initial census distribution (``stationary_census_table``); all
    #: modules start healthy when ``None``.
    initial_census: CensusTable | None = None
    #: Record the full ``(rounds, groups)`` outcome matrix.
    record_outcomes: bool = False
    #: Record every rejuvenation start as ``(round, group, module)``.
    record_rejuvenations: bool = False
    #: Record per-round fleet totals (errors, vote participation and
    #: deviation counts, flagged modules) — the window stream the
    #: ``repro.obs.watch`` detectors consume.  Per-chunk totals are
    #: int64 count vectors summed across chunks, so the merged stream
    #: is independent of ``jobs`` and chunk execution order.
    record_round_totals: bool = False

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise SimulationError(f"groups must be >= 1, got {self.groups}")
        if self.rounds < 1:
            raise SimulationError(f"rounds must be >= 1, got {self.rounds}")
        if not 0 <= self.warmup_rounds < self.rounds:
            raise SimulationError(
                f"warmup_rounds must lie in [0, rounds), got "
                f"{self.warmup_rounds} with rounds={self.rounds}"
            )
        if self.chunk_size < 1:
            raise SimulationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.n_labels < 2:
            raise SimulationError(
                f"n_labels must be >= 2, got {self.n_labels}"
            )
        if not self.request_period > 0:
            raise SimulationError(
                f"request_period must be positive, got {self.request_period}"
            )
        if self.seed < 0:
            raise SimulationError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.agreement, AgreementModel):
            raise SimulationError(
                f"agreement must be an AgreementModel, got {self.agreement!r}"
            )
        check_vote_capacity(
            self.parameters.n_modules, self.parameters.voting_scheme
        )
        if self.parameters.rejuvenation:
            interval = self.parameters.rejuvenation_interval
            if not _whole_periods(interval, self.request_period):
                raise SimulationError(
                    "the rejuvenation interval must be an integer multiple "
                    "of the request period so clock ticks land on the round "
                    f"grid; interval={interval} / request_period="
                    f"{self.request_period} = {interval / self.request_period}"
                )
        if (
            self.monitor is not None
            and self.monitor.drives_clock
            and not self.parameters.rejuvenation
        ):
            raise SimulationError(
                f"monitor mode {self.monitor.mode!r} drives the rejuvenation "
                "clock but the configuration has rejuvenation disabled"
            )

    @property
    def ticks_every(self) -> int:
        """Rounds per rejuvenation-clock tick."""
        return round(self.parameters.rejuvenation_interval / self.request_period)

    @property
    def chunk_count(self) -> int:
        return -(-self.groups // self.chunk_size)

    def chunk_groups(self, chunk_index: int) -> int:
        start = chunk_index * self.chunk_size
        return min(self.chunk_size, self.groups - start)

    def with_stationary_init(self) -> "BatchConfig":
        """This config with the analytic stationary census as the
        initial distribution (solves the engine's model once)."""
        from dataclasses import replace

        return replace(
            self, initial_census=stationary_census_table(self.parameters)
        )


@dataclass(frozen=True)
class BatchReport:
    """Aggregated result of one batch run.

    Counts (``requests``/``correct``/``errors``/``inconclusive``, the
    per-group arrays and ``census``) cover the measured window — rounds
    at and after ``warmup_rounds``; the recorded ``outcomes`` matrix, the
    transition counts, and the throughput cover every simulated round.
    """

    groups: int
    rounds: int
    warmup_rounds: int
    requests: int
    correct: int
    errors: int
    inconclusive: int
    #: Simulated seconds per group in the measured window.
    duration: float
    seed: int
    jobs: int
    wall_seconds: float
    #: Simulated requests (all rounds × groups) per wall-clock second.
    throughput: float
    per_group_correct: np.ndarray
    per_group_errors: np.ndarray
    per_group_inconclusive: np.ndarray
    #: Per-group ground-truth transition counts over all rounds.
    transitions: "dict[str, np.ndarray]"
    #: ``census[h, c]``: group-rounds voted with ``h`` healthy and ``c``
    #: compromised modules (int64, ``(N+1, N+1)``), the empirical π.
    census: np.ndarray
    outcomes: "np.ndarray | None"
    rejuvenations: "tuple[tuple[int, int, int], ...] | None"
    monitor: "BatchMonitorReport | None"
    #: Per-round fleet totals (``record_round_totals``), all rounds.
    round_errors: "np.ndarray | None" = None
    round_inconclusive: "np.ndarray | None" = None
    round_deviations: "np.ndarray | None" = None
    round_participants: "np.ndarray | None" = None
    round_flagged: "np.ndarray | None" = None

    @property
    def reliability_safe_skip(self) -> float:
        """E[R] under the safe-skip convention (inconclusive != error)."""
        return 1.0 - self.errors / self.requests if self.requests else 1.0

    @property
    def reliability_strict(self) -> float:
        """E[R] under the strict convention (only CORRECT counts)."""
        return self.correct / self.requests if self.requests else 1.0


@dataclass
class _ChunkResult:
    """Everything one chunk ships back to the parent (picklable)."""

    chunk_index: int
    per_group_correct: np.ndarray
    per_group_errors: np.ndarray
    per_group_inconclusive: np.ndarray
    transitions: "dict[str, np.ndarray]"
    census: np.ndarray
    outcomes: "np.ndarray | None"
    rejuvenations: "list[tuple[int, int, int]]"
    monitor: "BatchMonitorReport | None"
    round_errors: "np.ndarray | None" = None
    round_inconclusive: "np.ndarray | None" = None
    round_deviations: "np.ndarray | None" = None
    round_participants: "np.ndarray | None" = None
    round_flagged: "np.ndarray | None" = None


def recount_states(state: np.ndarray) -> np.ndarray:
    """``counts[s, i]``: the modules of group ``i`` in state code ``s``
    (int64, ``(4, groups)``), recounted from ``state``."""
    codes = (STATE_HEALTHY, STATE_COMPROMISED, STATE_FAILED, STATE_REJUVENATING)
    return np.stack([(state == code).sum(axis=1) for code in codes])


def _operational(state: np.ndarray) -> np.ndarray:
    """Modules that vote: the two lowest state codes, HEALTHY and
    COMPROMISED."""
    return state <= STATE_COMPROMISED


def _simulate_chunk(config: BatchConfig, chunk_index: int) -> _ChunkResult:
    """Run one chunk of groups through every round (phases A-D).

    The round pays per event (see the module docstring): ``move`` is the
    one place a module changes state, and it updates ``counts`` with it.
    """
    params = config.parameters
    n = params.n_modules
    g = config.chunk_groups(chunk_index)
    offset = chunk_index * config.chunk_size
    dt = config.request_period
    scheme = params.voting_scheme
    threshold = scheme.threshold
    per_label = config.agreement is AgreementModel.PER_LABEL
    rejuvenation = params.rejuvenation
    ticks_every = config.ticks_every if rejuvenation else 0
    r = params.r

    schedule = SeedSchedule(config.seed, n)
    state = sample_initial_states(
        config.initial_census, schedule.init_draws(chunk_index, g), n
    )
    counts = recount_states(state)
    healthy_n = counts[STATE_HEALTHY]
    compromised_n = counts[STATE_COMPROMISED]
    rejuvenating_n = counts[STATE_REJUVENATING]
    completion_q = np.zeros((g, n))
    completion_by_batch = completion_probabilities(params, dt)
    steady_probabilities = channel_probabilities(params, dt)
    pending = np.zeros(g, dtype=np.int64)
    transitions = {
        kind: np.zeros(g, dtype=np.int64) for kind in TRANSITION_KINDS
    }
    measured_correct = np.zeros(g, dtype=np.int64)
    measured_errors = np.zeros(g, dtype=np.int64)
    measured_inconclusive = np.zeros(g, dtype=np.int64)
    census_cells = np.zeros((n + 1) * (n + 1), dtype=np.int64)
    outcomes = (
        np.zeros((config.rounds, g), dtype=np.int8)
        if config.record_outcomes
        else None
    )
    if config.record_round_totals:
        round_errors = np.zeros(config.rounds, dtype=np.int64)
        round_inconclusive = np.zeros(config.rounds, dtype=np.int64)
        round_deviations = np.zeros(config.rounds, dtype=np.int64)
        round_participants = np.zeros(config.rounds, dtype=np.int64)
        round_flagged = np.zeros(config.rounds, dtype=np.int64)
    else:
        round_errors = round_inconclusive = None
        round_deviations = round_participants = round_flagged = None
    rejuvenations: "list[tuple[int, int, int]]" = []

    monitor = (
        HealthMonitor(params, config.monitor, g)
        if config.monitor is not None
        else None
    )
    monitor_drives = monitor is not None and monitor.drives_clock
    needs_labels = monitor is not None or per_label

    def move(
        kind: str, rows: np.ndarray, cols: np.ndarray, now: float, k: int
    ) -> None:
        """Apply one kind of transition to modules ``(rows[i], cols[i])``,
        given in row-major order (a group may appear more than once)."""
        target = _TARGET_OF_KIND[kind]
        np.subtract.at(counts, (state[rows, cols], rows), 1)
        np.add.at(counts, (target, rows), 1)
        state[rows, cols] = target
        np.add.at(transitions[kind], rows, 1)
        if kind == "rejuvenation-start":
            # completion mean = batch size *after* all of this moment's
            # starts (the DSPN's marking-dependent Trj)
            completion_q[rows, cols] = completion_by_batch[
                rejuvenating_n[rows]
            ]
            if config.record_rejuvenations:
                rejuvenations.extend(
                    (k, offset + gi, mi)
                    for gi, mi in zip(rows.tolist(), cols.tolist())
                )
        elif kind == "rejuvenation-done":
            completion_q[rows, cols] = 0.0
        if monitor is not None:
            mask = np.zeros((g, n), dtype=bool)
            mask[rows, cols] = True
            monitor.record_transition(now, kind, mask)

    def start_rejuvenation(
        commands: "np.ndarray | None", now: float, k: int
    ) -> None:
        if commands is not None and commands.any():
            move("rejuvenation-start", *commands.nonzero(), now, k)

    for k in range(config.rounds):
        now = (k + 1) * dt
        draws = schedule.round_draws(chunk_index, k, g)

        # phase A: rejuvenation completions (completion_q is 0 on every
        # module that is not rejuvenating, so the draw alone decides)
        if rejuvenating_n.any():
            rows, cols = (draws.u_done < completion_q).nonzero()
            if rows.size:
                move("rejuvenation-done", rows, cols, now, k)

        # phase B: fault channels (Tc, Tf, Tr in order), victims drawn
        # only in the groups whose channel fired
        probabilities = (
            channel_probabilities(
                params, dt, config.campaign.multiplier_at(k * dt)
            )
            if config.campaign is not None
            else steady_probabilities
        )
        for channel, kind in enumerate(CHANNEL_ORDER):
            source = _CHANNEL_SOURCES[channel]
            eligible_n = counts[source]
            rows = (
                (eligible_n > 0)
                & (draws.u_channel[:, channel] < probabilities[channel])
            ).nonzero()[0]
            if not rows.size:
                continue
            pick = (draws.u_victim[rows, channel] * eligible_n[rows]).astype(
                np.int64
            )
            # the victim is the (pick + 1)-th eligible module in id order
            rank = np.cumsum(state[rows] == source, axis=1)
            move(kind, rows, np.argmax(rank > pick[:, None], axis=1), now, k)

        # phase C: the rejuvenation clock
        if rejuvenation:
            is_tick = (k + 1) % ticks_every == 0
            if monitor_drives:
                if is_tick:
                    start_rejuvenation(
                        monitor.on_tick(now, _operational(state)), now, k
                    )
            else:
                if is_tick:
                    # guard g1: arm only when idle
                    pending[(rejuvenating_n == 0) & (pending == 0)] = r
                if pending.any():
                    operational_n = healthy_n + compromised_n
                    # guard g2: failed + rejuvenating modules count
                    # against the unavailability budget r
                    start_n = np.minimum(
                        np.minimum(
                            pending, np.maximum(0, r - (n - operational_n))
                        ),
                        operational_n,
                    )
                    rows = start_n.nonzero()[0]
                    if rows.size:
                        # victims: the start_n smallest selection keys
                        # among operational modules
                        operational = _operational(state[rows])
                        keys = np.where(operational, draws.u_select[rows], np.inf)
                        order = np.argsort(keys, axis=1, kind="stable")
                        rank = np.argsort(order, axis=1)
                        picked, cols = np.nonzero(
                            operational & (rank < start_n[rows][:, None])
                        )
                        pending -= start_n
                        move("rejuvenation-start", rows[picked], cols, now, k)

        # phase D: the perception request
        votes = healthy_n + compromised_n
        if k >= config.warmup_rounds:
            census_cells += np.bincount(
                healthy_n * (n + 1) + compromised_n,
                minlength=census_cells.size,
            )
        # wrong votes: compromised modules err on their own; a healthy
        # error event makes a leader err and drags other healthy ones
        wrong = (state == STATE_COMPROMISED) & (draws.u_comp_err < params.p_prime)
        erring = ((healthy_n > 0) & (draws.u_error < params.p)).nonzero()[0]
        if erring.size:
            healthy = state[erring] == STATE_HEALTHY
            pick = (draws.u_leader[erring] * healthy_n[erring]).astype(np.int64)
            leader = healthy & (np.cumsum(healthy, axis=1) == (pick + 1)[:, None])
            dragged = healthy & ~leader & (draws.u_alpha[erring] < params.alpha)
            wrong[erring] |= leader | dragged
        wrong_n = wrong.sum(axis=1)
        outcome = classify_worst_case(votes, votes - wrong_n, threshold)
        # the deviation mask and counts: the wrong voters, except where
        # the tally below finds otherwise (the arrays are reused)
        deviated, deviations = wrong, wrong_n
        if needs_labels:
            # Where the truth has more votes than all wrong votes
            # together it wins outright: the wrong voters are exactly the
            # deviators, and pooling wrong votes per label cannot change
            # the outcome.  Labels and the tally are needed only in the
            # contested groups, where the wrong votes are at least as
            # many as the right ones.
            contested = ((wrong_n > 0) & (2 * wrong_n >= votes)).nonzero()[0]
            if contested.size:
                states = state[contested]
                truth = (draws.u_truth[contested] * config.n_labels).astype(
                    np.int64
                )
                common = wrong_labels(
                    truth, draws.u_common[contested], config.n_labels
                )
                own_wrong = wrong_labels(
                    truth[:, None], draws.u_comp_label[contested], config.n_labels
                )
                labels = np.where(
                    wrong[contested],
                    np.where(states == STATE_HEALTHY, common[:, None], own_wrong),
                    truth[:, None],
                )
                labels[~_operational(states)] = NO_OUTPUT
                tally = tally_rounds(labels, truth, config.n_labels, scheme)
                if per_label:
                    outcome[contested] = classify_per_label(tally, threshold)
                # a contested group has votes, hence a winner
                deviated[contested] = (labels >= 0) & (
                    labels != tally.winner[:, None]
                )
                deviations[contested] = deviated[contested].sum(axis=1)
        errors = int(np.count_nonzero(outcome == OUTCOME_ERROR))
        if outcomes is not None:
            outcomes[k] = outcome
        if round_errors is not None:
            round_errors[k] = errors
            round_inconclusive[k] = int(
                np.count_nonzero(outcome == OUTCOME_INCONCLUSIVE)
            )
        if k >= config.warmup_rounds:
            measured_correct += outcome == OUTCOME_CORRECT
            measured_errors += outcome == OUTCOME_ERROR
            measured_inconclusive += outcome == OUTCOME_INCONCLUSIVE

        if monitor is not None:
            if round_deviations is not None:
                round_deviations[k] = int(deviations.sum())
                round_participants[k] = int(votes.sum())
            start_rejuvenation(
                monitor.observe_round(
                    now,
                    _operational(state),
                    deviated,
                    errors,
                    participants=votes,
                    deviations=deviations,
                ),
                now,
                k,
            )
            if round_flagged is not None:
                round_flagged[k] = int(np.count_nonzero(monitor.metrics.flagged))

    return _ChunkResult(
        chunk_index=chunk_index,
        per_group_correct=measured_correct,
        per_group_errors=measured_errors,
        per_group_inconclusive=measured_inconclusive,
        transitions=transitions,
        census=census_cells.reshape(n + 1, n + 1),
        outcomes=outcomes,
        rejuvenations=rejuvenations,
        monitor=monitor.report() if monitor is not None else None,
        round_errors=round_errors,
        round_inconclusive=round_inconclusive,
        round_deviations=round_deviations,
        round_participants=round_participants,
        round_flagged=round_flagged,
    )


def simulate_batch(config: BatchConfig, *, jobs: int = 1) -> BatchReport:
    """Run the batch simulation, inline or across worker processes.

    ``jobs`` changes wall-clock only: chunk boundaries, per-chunk
    schedules, and the chunk-ordered registry merge are identical at
    every worker count, so the report (and every ``monitor.*`` counter)
    is too.
    """
    if jobs < 1:
        raise SimulationError(f"jobs must be >= 1, got {jobs}")
    chunks = config.chunk_count
    total_requests = config.groups * config.rounds
    started = _time.perf_counter()
    emit_event(
        "sim.batch.start",
        groups=config.groups,
        rounds=config.rounds,
        chunks=chunks,
        jobs=jobs,
        seed=config.seed,
    )
    with span(
        "sim.batch.run",
        groups=config.groups,
        rounds=config.rounds,
        chunks=chunks,
        jobs=jobs,
    ):
        # every chunk runs in its own capture, inline or in a worker,
        # absorbed in chunk order: the counters are jobs-invariant
        capture = functools.partial(
            run_captured, _simulate_chunk,
            policy=capture_policy(), name="sim.batch.chunk",
        )
        if jobs == 1 or chunks == 1:
            captures = [capture((config, i), chunk=i) for i in range(chunks)]
        else:
            with ProcessPoolExecutor(max_workers=min(jobs, chunks)) as pool:
                futures = [
                    pool.submit(capture, (config, i), chunk=i)
                    for i in range(chunks)
                ]
                captures = [future.result() for future in futures]
        results = []
        for index, captured in enumerate(captures):
            result = captured.absorb(process=index + 1)
            results.append(result)
            emit_event(
                "sim.batch.chunk",
                chunk=result.chunk_index,
                groups=int(result.per_group_correct.shape[0]),
                errors=int(result.per_group_errors.sum()),
            )
    wall = _time.perf_counter() - started

    per_group_correct = np.concatenate([r.per_group_correct for r in results])
    per_group_errors = np.concatenate([r.per_group_errors for r in results])
    per_group_inconclusive = np.concatenate(
        [r.per_group_inconclusive for r in results]
    )
    transitions = {
        kind: np.concatenate([r.transitions[kind] for r in results])
        for kind in TRANSITION_KINDS
    }
    # int64 counts summed in chunk order: jobs-invariant
    census = np.sum([r.census for r in results], axis=0)
    outcomes = (
        np.concatenate([r.outcomes for r in results], axis=1)
        if config.record_outcomes
        else None
    )
    rejuvenation_list: "list[tuple[int, int, int]]" = []
    for result in results:
        rejuvenation_list.extend(result.rejuvenations)
    rejuvenation_list.sort()
    monitor_report = (
        merge_monitor_reports([r.monitor for r in results])
        if config.monitor is not None
        else None
    )
    def _round_sum(name: str) -> "np.ndarray | None":
        # int64 counts: addition is exact and commutative, so the
        # per-round stream is identical at every jobs value.
        if not config.record_round_totals:
            return None
        return np.sum([getattr(r, name) for r in results], axis=0)

    measured_rounds = config.rounds - config.warmup_rounds
    requests = measured_rounds * config.groups
    report = BatchReport(
        groups=config.groups,
        rounds=config.rounds,
        warmup_rounds=config.warmup_rounds,
        requests=requests,
        correct=int(per_group_correct.sum()),
        errors=int(per_group_errors.sum()),
        inconclusive=int(per_group_inconclusive.sum()),
        duration=measured_rounds * config.request_period,
        seed=config.seed,
        jobs=jobs,
        wall_seconds=wall,
        throughput=total_requests / wall if wall > 0 else float("inf"),
        per_group_correct=per_group_correct,
        per_group_errors=per_group_errors,
        per_group_inconclusive=per_group_inconclusive,
        transitions=transitions,
        census=census,
        outcomes=outcomes,
        rejuvenations=(
            tuple(rejuvenation_list) if config.record_rejuvenations else None
        ),
        monitor=monitor_report,
        round_errors=_round_sum("round_errors"),
        round_inconclusive=_round_sum("round_inconclusive"),
        round_deviations=_round_sum("round_deviations"),
        round_participants=_round_sum("round_participants"),
        round_flagged=_round_sum("round_flagged"),
    )
    obs_counter("sim.batch.requests").inc(total_requests)
    obs_counter("sim.batch.errors").inc(report.errors)
    emit_event(
        "sim.batch.done",
        requests=requests,
        errors=report.errors,
        reliability=report.reliability_safe_skip,
        throughput=report.throughput,
        wall_seconds=wall,
    )
    return report
