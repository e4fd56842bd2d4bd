"""Rejuvenation policies: the monitor's options and its one selection rule.

Three policies span the open-loop-to-closed-loop spectrum:

* ``periodic`` (mode ``observe``) — the paper's baseline.  It is
  *passive*: the simulator keeps its own rejuvenation clock (phase C
  of :mod:`repro.simulation.batch.runtime`), selections stay uniformly
  random, and the monitor only observes.  With the same seed
  the trajectory is bit-identical to an unmonitored run.
* ``targeted`` — same clock, informed selection: at every tick it
  rejuvenates the modules the estimator considers most suspect
  (staleness-first among ties) instead of random victims.
* ``threshold`` — adaptive timing *and* selection: it fires between
  ticks as soon as a module's posterior P(compromised) reaches
  ``bound``, spending from the same budget.

Active policies draw on a token bucket refilled with ``r`` tokens per
clock interval and capped at ``budget_cap`` (default ``r``), so the
comparison between policies is at **equal rejuvenation budgets**: an
adaptive policy may redistribute *when* and *whom*, never *how much*.

:class:`MonitorConfig` is the one validated option set, shared by the
scalar adapter and the batch runtime; :func:`select_rejuvenations`
is the one ranking/budget rule, over ``(groups, n_modules)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.utils.validation import check_positive_int, check_probability

#: Monitor operating modes.  ``observe`` is the passive baseline;
#: ``targeted`` and ``threshold`` replace the clock with the
#: corresponding active policy.
MONITOR_MODES = ("observe", "targeted", "threshold")

#: The ``repro monitor`` policy names and the mode each one runs.
POLICY_MODES = {"periodic": "observe", "threshold": "threshold", "targeted": "targeted"}
POLICY_NAMES: tuple[str, ...] = tuple(POLICY_MODES)


@dataclass(frozen=True)
class MonitorConfig:
    """Monitoring options of one run (picklable, validated).

    ``bound`` and ``detection_threshold`` must be finite and in [0, 1];
    ``budget_cap`` an integer >= 1, or ``None`` for ``r``.
    """

    mode: str = "observe"
    #: Posterior bound of the threshold policy.
    bound: float = 0.9
    #: Posterior bound above which a module counts as flagged.
    detection_threshold: float = 0.5
    #: Token-bucket cap for active policies (defaults to ``r``).
    budget_cap: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MONITOR_MODES:
            raise SimulationError(
                f"unknown monitor mode {self.mode!r}; valid modes: "
                f"{', '.join(MONITOR_MODES)}"
            )
        check_probability("bound", self.bound)
        check_probability("detection_threshold", self.detection_threshold)
        if self.budget_cap is not None:
            check_positive_int("budget_cap", self.budget_cap)

    @property
    def drives_clock(self) -> bool:
        """Whether the monitor replaces the built-in rejuvenation clock."""
        return self.mode != "observe"

    @property
    def policy(self) -> str:
        """The mode's ``repro monitor`` policy name."""
        return next(name for name, mode in POLICY_MODES.items() if mode == self.mode)


def make_policy(name: str, **options) -> MonitorConfig:
    """The :class:`MonitorConfig` of a ``repro monitor`` policy name."""
    if name not in POLICY_MODES:
        raise ValueError(
            f"unknown policy {name!r}; valid names: {', '.join(sorted(POLICY_MODES))}"
        )
    return MonitorConfig(mode=POLICY_MODES[name], **options)


def select_rejuvenations(
    posterior: np.ndarray,
    available: np.ndarray,
    staleness: np.ndarray,
    tokens: np.ndarray,
    r: int,
    bound: float | None = None,
) -> np.ndarray:
    """Which modules to rejuvenate now, as a ``(groups, n_modules)`` mask.

    Per group, the available modules are ranked most suspect first;
    ties (e.g. several posteriors pinned at ~0 right after resets)
    break towards the *stalest* module, then the lowest id — a
    deterministic round-robin that spreads blind rejuvenations.  With a
    ``bound`` only posteriors at or above it are eligible.  Each group
    takes the first ``min(tokens, max(0, r - down))`` eligible modules
    of its ranking: the budget and guard g2, which counts modules
    already failed or rejuvenating against ``r``.
    """
    groups, slots = posterior.shape
    down = slots - available.sum(axis=1)
    allowance = np.minimum(tokens, np.maximum(0, r - down))
    suspicion = np.where(available, posterior, -np.inf)
    eligible = available if bound is None else available & (suspicion >= bound)
    rows = np.repeat(np.arange(groups), slots)
    ids = np.tile(np.arange(slots), groups)
    order = np.lexsort((ids, -staleness.ravel(), -suspicion.ravel(), rows))
    columns = (order % slots).reshape(groups, slots)
    row_index = np.arange(groups)[:, None]
    eligible_ranked = eligible[row_index, columns]
    taken_ranked = eligible_ranked & (
        np.cumsum(eligible_ranked, axis=1) <= allowance[:, None]
    )
    commands = np.zeros_like(eligible)
    commands[row_index, columns] = taken_ranked
    return commands
