"""Tests for the rejuvenation policies, their budget and the selection rule."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.monitor.core import HealthMonitor
from repro.monitor.policies import (
    POLICY_MODES,
    POLICY_NAMES,
    MonitorConfig,
    make_policy,
    select_rejuvenations,
)
from repro.perception.parameters import PerceptionParameters


@pytest.fixture
def parameters():
    return PerceptionParameters.six_version_defaults()


def select(suspicion, *, tokens=1, r=1, staleness=None, bound=None):
    """The selection rule on one group; ``None`` suspicion marks a
    module that is down.  Returns the picked module ids."""
    available = np.array([[p is not None for p in suspicion]])
    posterior = np.array([[np.nan if p is None else p for p in suspicion]])
    stale = np.array([staleness or [100.0] * len(suspicion)], dtype=float)
    commands = select_rejuvenations(
        posterior, available, stale, np.array([tokens]), r, bound
    )
    return np.flatnonzero(commands[0]).tolist()


def suspect_core(parameters, mode, suspect=2):
    """A one-group monitor whose module ``suspect`` looks compromised."""
    core = HealthMonitor(parameters, MonitorConfig(mode=mode))
    n = parameters.n_modules
    everyone = np.ones((1, n), dtype=bool)
    deviated = np.zeros((1, n), dtype=bool)
    deviated[0, suspect] = True
    for i in range(30):
        core.observe_round(float(i + 1), everyone, deviated, 0)
    return core


class TestBudget:
    """The token bucket: r tokens per tick, capped, spent per command."""

    def test_accrual_capped(self, parameters):
        core = HealthMonitor(parameters, MonitorConfig(budget_cap=2))
        operational = np.ones((1, parameters.n_modules), dtype=bool)
        for tick in range(5):
            core.on_tick(600.0 * (tick + 1), operational)
        assert core.tokens[0] == 2

    def test_spend_and_exhaustion(self, parameters):
        core = suspect_core(parameters, "targeted")
        operational = core.estimator.available.copy()
        assert np.flatnonzero(core.on_tick(600.0, operational)[0]).tolist() == [2]
        assert core.tokens[0] == 0
        # an empty bucket selects nobody, however suspect
        assert select([0.9, 0.8], tokens=0, r=2) == []

    def test_cap_defaults_to_rate(self, parameters):
        assert HealthMonitor(parameters, MonitorConfig()).budget_cap == parameters.r

    def test_starts_empty(self, parameters):
        """No spending before the first tick: fairness vs the baseline."""
        core = HealthMonitor(parameters, MonitorConfig(mode="threshold"), groups=3)
        assert (core.tokens == 0).all()


class TestPolicyView:
    """What every active policy sees: the ranking and the allowance."""

    def test_ranking_most_suspect_first(self):
        suspicion = [0.1, 0.9, 0.4, None]
        assert select(suspicion, tokens=1, r=4) == [1]
        assert select(suspicion, tokens=2, r=4) == [1, 2]
        assert select(suspicion, tokens=3, r=4) == [0, 1, 2]

    def test_tie_breaks_towards_stalest(self):
        assert select([0.0, 0.0], staleness=[10.0, 500.0]) == [1]

    def test_allowance_is_min_of_budget_and_guard(self):
        assert select([0.5, 0.4, 0.3], tokens=3, r=1) == [0]
        assert select([0.5, 0.4], tokens=0, r=2) == []
        # guard g2: one module already down uses up r = 1
        assert select([0.5, None], tokens=1, r=1) == []


class TestPeriodicPolicy:
    def test_is_passive_and_silent(self, parameters):
        core = suspect_core(parameters, "observe")
        assert not core.drives_clock
        operational = core.estimator.available.copy()
        for tick in range(3):
            assert core.on_tick(600.0 * (tick + 1), operational) is None
        n = parameters.n_modules
        everyone = np.ones((1, n), dtype=bool)
        assert core.observe_round(1801.0, everyone, everyone, 0) is None


class TestTargetedPolicy:
    def test_spends_allowance_on_most_suspect(self):
        assert select([0.2, 0.8, 0.5], tokens=2, r=2) == [1, 2]

    def test_respects_guard(self):
        assert select([0.2, 0.8], tokens=2, r=0) == []

    def test_silent_between_ticks(self, parameters):
        core = suspect_core(parameters, "targeted")
        core.on_tick(600.0, core.estimator.available.copy())
        n = parameters.n_modules
        everyone = np.ones((1, n), dtype=bool)
        assert core.observe_round(601.0, everyone, everyone, 0) is None


class TestThresholdPolicy:
    def test_fires_only_above_bound(self):
        assert select([0.69, 0.2], bound=0.7) == []
        assert select([0.71, 0.2], bound=0.7) == [0]

    def test_budget_limits_simultaneous_fires(self):
        assert select([0.9, 0.8, 0.7], tokens=1, r=3, bound=0.5) == [0]

    def test_tick_retries_suspects(self, parameters):
        # suspect since round ~20, but no token until the first tick
        core = suspect_core(parameters, "threshold")
        commands = core.on_tick(600.0, core.estimator.available.copy())
        assert np.flatnonzero(commands[0]).tolist() == [2]

    def test_invalid_bound_rejected(self):
        with pytest.raises(ParameterError):
            MonitorConfig(mode="threshold", bound=1.5)


class TestRegistry:
    def test_make_policy_all_names(self):
        for name in POLICY_NAMES:
            config = make_policy(name)
            assert config.mode == POLICY_MODES[name]
            assert config.policy == name

    def test_make_policy_kwargs(self):
        assert make_policy("threshold", bound=0.42).bound == 0.42

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("oracle")
