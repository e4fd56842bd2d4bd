"""The differential harness: every execution mode must agree.

Three differentials, the first two enumerated over the experiment
registry itself (a new experiment is covered the moment it is
registered — there is no hand-maintained list here):

* cached (cold disk, then warm disk) == uncached serial,
* parallel (``--jobs``, default 4) == serial,
* the CTMC and MRGP solver routes agree wherever both apply.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dspn.steady_state import solve_steady_state
from repro.engine import cache_override
from repro.errors import UnsupportedModelError
from repro.experiments.registry import EXPERIMENT_IDS, run_experiment
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_rejuvenation_net


class TestCachedEqualsUncached:
    @pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
    def test_cold_and_warm_cache_render_identically(
        self, experiment_id, baseline_render, tmp_path
    ):
        with cache_override(enabled=True, directory=tmp_path):
            cold = run_experiment(experiment_id).render(plot=False)
        # a fresh override drops the in-memory tier: the warm run must
        # reproduce the report purely from verified disk entries
        with cache_override(enabled=True, directory=tmp_path):
            warm = run_experiment(experiment_id).render(plot=False)
        assert cold == baseline_render(experiment_id)
        assert warm == cold


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
    def test_parallel_renders_identically(
        self, experiment_id, baseline_render, engine_jobs
    ):
        with cache_override(enabled=True, directory=None):
            parallel = run_experiment(experiment_id, jobs=engine_jobs).render(
                plot=False
            )
        assert parallel == baseline_render(experiment_id)


def _exponential_only_nets():
    """Nets solvable by both analytic routes (no deterministic firings)."""
    six = PerceptionParameters.six_version_defaults()
    return [
        pytest.param(
            build_no_rejuvenation_net(PerceptionParameters.four_version_defaults()),
            id="four-version",
        ),
        pytest.param(
            build_rejuvenation_net(six, clock="exponential"),
            id="six-version-exponential-clock",
        ),
    ]


class TestSolverRouteAgreement:
    @pytest.mark.parametrize("net", _exponential_only_nets())
    def test_ctmc_and_mrgp_agree(self, net):
        with cache_override(enabled=False):
            ctmc = solve_steady_state(net)
            mrgp = solve_steady_state(net, method="mrgp")
        assert ctmc.method == "sparse"
        assert mrgp.method == "mrgp"
        assert ctmc.markings == mrgp.markings
        np.testing.assert_allclose(mrgp.pi, ctmc.pi, atol=1e-10)

    def test_auto_picks_ctmc_for_exponential_nets(self):
        net = build_no_rejuvenation_net(
            PerceptionParameters.four_version_defaults()
        )
        with cache_override(enabled=False):
            assert solve_steady_state(net).method == "sparse"

    def test_auto_picks_mrgp_for_deterministic_nets(self):
        net = build_rejuvenation_net(PerceptionParameters.six_version_defaults())
        with cache_override(enabled=False):
            assert solve_steady_state(net).method == "mrgp"

    def test_ctmc_route_refuses_deterministic_nets(self):
        net = build_rejuvenation_net(PerceptionParameters.six_version_defaults())
        with cache_override(enabled=False):
            with pytest.raises(UnsupportedModelError, match="deterministic"):
                solve_steady_state(net, method="sparse")

    def test_forced_mrgp_result_is_cached_separately(self, tmp_path):
        """method= is part of the cache key: no cross-route aliasing."""
        net = build_no_rejuvenation_net(
            PerceptionParameters.four_version_defaults()
        )
        with cache_override(enabled=True, directory=tmp_path) as cache:
            first = solve_steady_state(net, method="sparse")
            second = solve_steady_state(net, method="mrgp")
            assert first.method == "sparse"
            assert second.method == "mrgp"
            assert cache.stats()["misses"] == 2
