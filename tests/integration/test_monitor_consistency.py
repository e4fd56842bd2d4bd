"""Monitor vs analytic model: one set of rates, two implementations.

The monitoring subsystem is only trustworthy if its internals agree
with the analytic pipeline they are derived from.  Two cross-checks:

* **occupancy** — the long-run (i, j, k) census of a monitored run must
  match the DSPN steady-state π (and attaching a passive monitor must
  not shift it);
* **priors** — the Bayesian filter's hazard rates must be exactly the
  rates of the DSPN's Tc/Tf transitions under single-server (CHANNEL)
  semantics, and its healthy-deviation likelihood must be the marginal
  per-module error probability of the dependent error model.
"""

import pytest

from repro.monitor import (
    HealthEstimator,
    MonitorController,
    healthy_deviation_probability,
    per_module_compromise_rate,
)
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_rejuvenation_net
from repro.simulation.faults import FaultSemantics
from repro.simulation.runtime import PerceptionRuntime
from repro.simulation.trace import compare_with_analytic


@pytest.fixture(scope="module")
def parameters():
    return PerceptionParameters.six_version_defaults()


@pytest.fixture(scope="module")
def monitored_occupancy(parameters):
    """One long monitored run, shared across the occupancy tests."""
    monitor = MonitorController(parameters)
    runtime = PerceptionRuntime(
        parameters, request_period=25.0, seed=2023, monitor=monitor
    )
    # requests only sample outputs; the census dynamics are driven by
    # the fault/rejuvenation events, so a sparse request stream keeps
    # this long horizon cheap
    report = runtime.run(400000.0, warmup=5000.0, collect_occupancy=True)
    return report.occupancy


class TestOccupancyAgainstSteadyState:
    def test_long_run_census_matches_pi(self, parameters, monitored_occupancy):
        comparison = compare_with_analytic(monitored_occupancy, parameters)
        assert comparison.total_variation_distance < 0.05

    def test_state_ranking_agrees(self, parameters, monitored_occupancy):
        """Both sides must rank the dominant censuses identically.

        Under Table II the compromised dwell (mttf = 3000 s) is long
        enough that (5, 1, 0) — one silently compromised module —
        outweighs the all-healthy census on *both* sides; agreeing on
        that ordering is a sharper check than the distance alone."""
        comparison = compare_with_analytic(monitored_occupancy, parameters)
        empirical_order = sorted(
            comparison.rows, key=lambda row: -row[1]
        )[:3]
        analytic_order = sorted(comparison.rows, key=lambda row: -row[2])[:3]
        assert [row[0] for row in empirical_order] == [
            row[0] for row in analytic_order
        ]

    def test_passive_monitor_does_not_shift_occupancy(
        self, parameters, monitored_occupancy
    ):
        bare = PerceptionRuntime(
            parameters, request_period=25.0, seed=2023
        ).run(400000.0, warmup=5000.0, collect_occupancy=True)
        assert bare.occupancy.dwell == monitored_occupancy.dwell


class TestEstimatorPriorConsistency:
    def test_hazards_are_the_dspn_transition_rates(self, parameters):
        """CHANNEL semantics = single-server firing: the filter's
        per-module hazards must equal the net's Tc/Tf rates."""
        net = build_rejuvenation_net(parameters)
        marking = net.initial_marking
        tc = net.transitions["Tc"].rate(marking)
        tf = net.transitions["Tf"].rate(marking)
        estimator = HealthEstimator(parameters)
        assert estimator.compromise_rate == pytest.approx(
            tc / parameters.n_modules
        )
        assert estimator.failure_rate == pytest.approx(tf)

    def test_per_module_semantics_matches_net_rate(self, parameters):
        assert per_module_compromise_rate(
            parameters, FaultSemantics.PER_MODULE
        ) == pytest.approx(parameters.lambda_c)

    def test_healthy_likelihood_is_marginal_error_probability(self, parameters):
        """P(deviate | healthy) = p·(1/N + (1−1/N)·α): the chance of
        being the error leader plus the chance of being dragged along —
        the dependent model's per-module marginal.  Check it against a
        direct Monte-Carlo of the runtime's output sampler."""
        import numpy as np

        runtime = PerceptionRuntime(parameters, request_period=1.0, seed=11)
        rng = np.random.default_rng(11)
        runtime.rng = rng
        deviations = 0
        rounds = 40000
        for _ in range(rounds):
            outputs = runtime._module_outputs(0)
            deviations += sum(output != 0 for output in outputs)
        observed = deviations / (rounds * parameters.n_modules)
        assert observed == pytest.approx(
            healthy_deviation_probability(parameters), rel=0.05
        )

    def test_steady_state_belief_bounded_by_pi(self, parameters):
        """With no evidence, the filter's belief must stay within the
        same order as the analytic compromised fraction — the prior
        drift cannot invent more suspicion than the model's dynamics."""
        estimator = HealthEstimator(parameters)
        # one rejuvenation interval without any vote evidence
        estimator.predict(parameters.rejuvenation_interval)
        drifted = estimator.posterior[0, 0]
        hazard = estimator.compromise_rate * parameters.rejuvenation_interval
        assert 0.0 < drifted < 2 * hazard
