"""The dense-vs-sparse differential harness.

Every net the experiment registry solves must produce the same
stationary distribution (and the same Eq. 1 expected reliability) on
the dense and the sparse route, to 1e-9 — enumerated over the registry
itself so a newly registered experiment is pinned the moment it exists.
Both routes run the same anchored LU, so each net is also solved by an
independent method, ILU-preconditioned GMRES (``solver="gmres"``), and
the LU answer must agree with it to 1e-9 absolute plus the certified
1e-8 relative bar.  Deterministic nets must be rejected identically by
both CTMC-class routes.  Hypothesis then widens the net beyond the
registry: random DSPN families (perception shapes with random rates,
and random fleet sizings) must agree with the Krylov solve too.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dspn.ctmc_builder import build_ctmc
from repro.dspn.sparse_builder import sparse_generator
from repro.dspn.rewards import reward_vector
from repro.dspn.steady_state import solve_steady_state
from repro.engine import cache_override
from repro.errors import UnsupportedModelError
from repro.experiments.registry import EXPERIMENT_IDS
from repro.markov.sparse import stationary_distribution_sparse
from repro.perception.fleet import FleetParameters, build_fleet_net
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.parameters import PerceptionParameters
from repro.perception.statemap import module_counts
from repro.statespace import tangible_reachability
from repro.verify.targets import experiment_targets

AGREEMENT = 1e-9
#: The solver's certified relative residual bar: an iterative answer
#: is only as close as its residual, so large entries get this much.
CERTIFIED = 1e-8


def _krylov_pi(result):
    """π of ``result``'s net by ILU-GMRES — a solve that shares no LU."""
    pi, info = stationary_distribution_sparse(
        sparse_generator(result.graph), solver="gmres"
    )
    assert info.factorization in ("ilu-gmres", "power")
    return pi


def _reward_function(target):
    reliability = target.reliability()

    def reward(marking):
        counts = module_counts(marking)
        return float(
            reliability(counts.healthy, counts.compromised, counts.unavailable)
        )

    return reward


class TestRegistryDifferential:
    """Dense vs sparse over every net of every registered experiment."""

    @pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
    def test_routes_agree_on_pi_and_expected_reward(self, experiment_id):
        for target in experiment_targets(experiment_id):
            net = target.build()
            graph = tangible_reachability(net, max_states=target.max_states)
            reward = _reward_function(target)
            with cache_override(enabled=False):
                if graph.has_deterministic():
                    # both CTMC-class routes must refuse identically
                    with pytest.raises(UnsupportedModelError):
                        solve_steady_state(net, method="ctmc")
                    with pytest.raises(UnsupportedModelError):
                        solve_steady_state(net, method="sparse")
                    continue
                dense = solve_steady_state(net, method="ctmc")
                sparse = solve_steady_state(net, method="sparse")
            assert sparse.method == "sparse"
            assert sparse.solver_info is not None
            np.testing.assert_allclose(
                sparse.pi,
                dense.pi,
                atol=AGREEMENT,
                rtol=0.0,
                err_msg=f"{experiment_id}/{target.name}: pi disagrees",
            )
            krylov = _krylov_pi(dense)
            np.testing.assert_allclose(
                dense.pi,
                krylov,
                atol=AGREEMENT,
                rtol=CERTIFIED,
                err_msg=f"{experiment_id}/{target.name}: LU and GMRES disagree",
            )
            assert dense.expected_reward(reward) == pytest.approx(
                float(krylov @ reward_vector(dense.markings, reward)),
                abs=AGREEMENT,
            ), f"{experiment_id}/{target.name}: E[R] disagrees"

    @pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
    def test_sparse_builder_matches_dense_generator(self, experiment_id):
        for target in experiment_targets(experiment_id):
            graph = tangible_reachability(
                target.build(), max_states=target.max_states
            )
            if graph.has_deterministic():
                continue
            dense = build_ctmc(graph).generator
            sparse = sparse_generator(graph)
            assert sparse.shape == dense.shape
            np.testing.assert_allclose(
                sparse.toarray(), dense, atol=1e-14, rtol=0.0
            )


class TestFleetDifferential:
    """The fleet product nets agree across routes at every tested size."""

    @pytest.mark.parametrize(
        "parameters",
        [
            pytest.param(FleetParameters.nv15_defaults(), id="nv15"),
            pytest.param(
                FleetParameters.nv15_defaults(crews=4, clock_slots=4),
                id="nv15-4crew",
            ),
        ],
    )
    def test_fleet_routes_agree(self, parameters):
        net = build_fleet_net(parameters)
        with cache_override(enabled=False):
            dense = solve_steady_state(net, method="ctmc")
            sparse = solve_steady_state(net, method="sparse")
        np.testing.assert_allclose(sparse.pi, dense.pi, atol=AGREEMENT, rtol=0.0)
        krylov = _krylov_pi(dense)
        np.testing.assert_allclose(dense.pi, krylov, atol=AGREEMENT, rtol=CERTIFIED)
        reward = lambda m: float(module_counts(m).healthy)  # noqa: E731
        # reward magnitudes reach n_modules here, so the E[R] bound is
        # looser than the per-entry pi bound
        assert dense.expected_reward(reward) == pytest.approx(
            float(krylov @ reward_vector(dense.markings, reward)), abs=1e-7
        )


perception_shapes = st.builds(
    PerceptionParameters,
    n_modules=st.integers(min_value=4, max_value=12),
    f=st.just(1),
    rejuvenation=st.just(False),
    mttc=st.floats(min_value=10.0, max_value=5000.0),
    mttf=st.floats(min_value=10.0, max_value=5000.0),
    mttr=st.floats(min_value=0.5, max_value=100.0),
)

fleet_shapes = st.builds(
    FleetParameters,
    perception=st.builds(
        PerceptionParameters,
        n_modules=st.integers(min_value=7, max_value=10),
        f=st.just(1),
        r=st.just(1),
        rejuvenation=st.just(True),
        mttc=st.floats(min_value=100.0, max_value=3000.0),
        rejuvenation_interval=st.floats(min_value=60.0, max_value=1200.0),
    ),
    crews=st.integers(min_value=1, max_value=3),
    clock_slots=st.integers(min_value=1, max_value=3),
)


class TestRandomFamilies:
    @settings(max_examples=25, deadline=None)
    @given(parameters=perception_shapes)
    # pinned: the Krylov solution's round-off negatives used to be
    # judged on an absolute scale and rejected this well-posed net
    @example(
        parameters=PerceptionParameters(
            n_modules=10,
            f=1,
            rejuvenation=False,
            mttc=10.0,
            mttf=297.0,
            mttr=1.0,
        )
    )
    def test_random_perception_nets_agree(self, parameters):
        net = build_no_rejuvenation_net(parameters)
        with cache_override(enabled=False):
            dense = solve_steady_state(net, method="ctmc")
            sparse = solve_steady_state(net, method="sparse")
        np.testing.assert_allclose(sparse.pi, dense.pi, atol=AGREEMENT, rtol=0.0)
        np.testing.assert_allclose(
            dense.pi, _krylov_pi(dense), atol=AGREEMENT, rtol=CERTIFIED
        )

    @settings(max_examples=10, deadline=None)
    @given(parameters=fleet_shapes)
    # pinned: one entry of magnitude 0.6 lands ~1e-9 from the dense
    # value — inside the certified relative bar, outside a bare atol
    @example(
        parameters=FleetParameters(
            perception=PerceptionParameters(
                n_modules=8,
                f=1,
                r=1,
                rejuvenation=True,
                mttc=100.0,
                rejuvenation_interval=322.0,
            ),
            crews=3,
            clock_slots=3,
        )
    )
    def test_random_fleet_nets_agree(self, parameters):
        net = build_fleet_net(parameters)
        with cache_override(enabled=False):
            dense = solve_steady_state(net, method="ctmc")
            sparse = solve_steady_state(net, method="sparse")
        np.testing.assert_allclose(sparse.pi, dense.pi, atol=AGREEMENT, rtol=0.0)
        np.testing.assert_allclose(
            dense.pi, _krylov_pi(dense), atol=AGREEMENT, rtol=CERTIFIED
        )
