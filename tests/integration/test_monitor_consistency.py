"""Monitor vs analytic model: one set of rates, two implementations.

The monitoring subsystem is only trustworthy if its internals agree
with the analytic pipeline they are derived from.  Two cross-checks:

* **occupancy** — the census a monitored batch votes in must match the
  DSPN steady-state π (and attaching a passive monitor must not shift
  it);
* **priors** — the Bayesian filter's hazard rates must be exactly the
  rates of the DSPN's Tc/Tf transitions under single-server semantics,
  and its healthy-deviation likelihood must be the marginal per-module
  error probability of the dependent error model.
"""

from math import comb

import numpy as np
import pytest

from repro.monitor import (
    HealthEstimator,
    MonitorConfig,
    healthy_deviation_probability,
    per_module_compromise_rate,
)
from repro.obs.metrics import registry_override
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_rejuvenation_net
from repro.petri.transition import ServerSemantics
from repro.simulation import BatchConfig, simulate_batch
from repro.simulation.trace import compare_with_analytic


@pytest.fixture(scope="module")
def parameters():
    return PerceptionParameters.six_version_defaults()


def occupancy_run(parameters, monitor):
    # requests only sample outputs; the census dynamics are driven by
    # the fault/rejuvenation channels, so a sparse 25 s request grid
    # (24 requests per clock interval) keeps this long horizon cheap
    config = BatchConfig(
        parameters=parameters,
        groups=256,
        rounds=2000,
        warmup_rounds=200,
        request_period=25.0,
        seed=2023,
        monitor=monitor,
    )
    with registry_override():
        return simulate_batch(config)


@pytest.fixture(scope="module")
def monitored_occupancy(parameters):
    """One long monitored run, shared across the occupancy tests."""
    return occupancy_run(parameters, MonitorConfig()).census


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
        bare = occupancy_run(parameters, None)
        np.testing.assert_array_equal(bare.census, monitored_occupancy)


class TestEstimatorPriorConsistency:
    def test_hazards_are_the_dspn_transition_rates(self, parameters):
        """Single-server firing: the filter's per-module hazards must
        equal the net's Tc/Tf rates."""
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
        """A per-module λc clock is the infinite-server net: its Tc
        fires at N·λc from the all-healthy marking, N times the
        filter's share of the one shared channel."""
        net = build_rejuvenation_net(parameters, server=ServerSemantics.INFINITE)
        transition = net.transitions["Tc"]
        marking = net.initial_marking()
        tc = transition.rate_in(
            marking, net.enabling_degree(transition, marking)
        )
        n = parameters.n_modules
        assert tc == pytest.approx(n * parameters.lambda_c)
        assert per_module_compromise_rate(parameters) == pytest.approx(tc / n**2)

    def test_healthy_likelihood_is_marginal_error_probability(self, parameters):
        """P(deviate | healthy) = p·(1/N + (1−1/N)·α): the chance of
        being the error leader plus the chance of being dragged along —
        the dependent model's per-module marginal.

        The batch's deviation counts measure deviation from the
        plurality *winner*, not from the truth: when the leader drags a
        majority along, the correct modules are the deviators.  So the
        check enumerates the E = 1 + Binomial(N−1, α) erring modules of
        an error event: E[E]/N·p must be the filter's likelihood, and
        E[min(E, N−E)]/N·p must be what an all-healthy batch measures.
        """
        healthy = parameters.replace(mttc=1e12, rejuvenation=False)
        n = healthy.n_modules
        alpha = healthy.alpha
        weights = {
            e: comb(n - 1, e - 1) * alpha ** (e - 1) * (1 - alpha) ** (n - e)
            for e in range(1, n + 1)
        }
        error_marginal = healthy.p * sum(w * e for e, w in weights.items()) / n
        deviation_marginal = (
            healthy.p * sum(w * min(e, n - e) for e, w in weights.items()) / n
        )
        assert healthy_deviation_probability(healthy) == pytest.approx(
            error_marginal, rel=1e-12
        )

        config = BatchConfig(
            parameters=healthy,
            groups=1024,
            rounds=40,
            request_period=1.0,
            seed=11,
            monitor=MonitorConfig(),
            record_round_totals=True,
        )
        with registry_override():
            report = simulate_batch(config)
        assert report.round_participants.sum() == 1024 * 40 * n
        observed = report.round_deviations.sum() / report.round_participants.sum()
        assert observed == pytest.approx(deviation_marginal, rel=0.05)

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
