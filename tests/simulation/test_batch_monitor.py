"""The monitor bridge: batch streams feed the repro.monitor health monitor.

The batch runtime drives :class:`~repro.monitor.core.HealthMonitor`
over each chunk's ``(groups, n_modules)`` arrays — the same core the
event-loop adapter drives at groups=1.  Comparing the two paths would
compare the code with itself, so these tests pin the core against
independent witnesses written out here: the closed-form posterior odds
of sequential Bernoulli updating, the affine odds recurrence of the
prior dynamics, and a ``sorted()`` oracle of the selection rule.  They
also check the end-to-end ``monitor.*`` metric surface between the
batch and reference runtimes (whose module state machines and voters
are independent), and the configuration validation/reporting surface.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, SimulationError
from repro.monitor.core import HealthMonitor
from repro.monitor.estimator import HealthEstimator
from repro.monitor.policies import select_rejuvenations
from repro.obs.metrics import registry_override
from repro.simulation import (
    BatchConfig,
    BatchMonitorConfig,
    simulate_batch,
    simulate_reference,
)

MONITOR_COUNTERS = (
    "monitor.compromises",
    "monitor.flags",
    "monitor.false_alarms",
    "monitor.rejuvenations",
    "monitor.rejuvenations.false",
    "monitor.rounds",
    "monitor.errors",
    "monitor.estimator.updates",
)


class TestFilterWitnesses:
    """The array filter against closed forms written out here."""

    def test_posterior_matches_closed_form_odds(self, six_version_parameters):
        """At dt=0, k rounds with d deviations multiply the prior odds
        by (p_dc/p_dh)^d · ((1-p_dc)/(1-p_dh))^(k-d)."""
        rng = np.random.default_rng(17)
        groups, n, rounds = 8, six_version_parameters.n_modules, 40
        estimator = HealthEstimator(six_version_parameters, groups)
        start = rng.uniform(0.01, 0.99, size=(groups, n))
        estimator.posterior = start.copy()
        everyone = np.ones((groups, n), dtype=bool)
        # per-module deviation rates from rare to compromised-like
        rates = rng.uniform(0.0, 0.6, size=(groups, n))
        deviations = np.zeros((groups, n), dtype=np.int64)
        for k in range(1, rounds + 1):
            deviated = rng.random((groups, n)) < rates
            deviations += deviated
            estimator.sync(0.0, everyone)
            estimator.update(deviated)
            p_dh = estimator.p_deviate_healthy
            p_dc = estimator.p_deviate_compromised
            odds = (
                start
                / (1.0 - start)
                * (p_dc / p_dh) ** deviations
                * ((1.0 - p_dc) / (1.0 - p_dh)) ** (k - deviations)
            )
            np.testing.assert_allclose(
                estimator.posterior, odds / (1.0 + odds), rtol=1e-12, atol=0.0
            )

    def test_prediction_follows_affine_odds_recurrence(
        self, six_version_parameters
    ):
        """Prediction alone maps odds x to a·x + b with
        a = e^{-λ·dt}/e^{-λc·dt} and b = (1 - e^{-λc·dt})/e^{-λc·dt}."""
        rng = np.random.default_rng(5)
        estimator = HealthEstimator(six_version_parameters, groups=4)
        start = rng.uniform(0.0, 0.5, size=estimator.posterior.shape)
        estimator.posterior = start.copy()
        odds = start / (1.0 - start)
        now = 0.0
        for dt in (0.1, 2.0, 37.5, 600.0, 1.0):
            now += dt
            estimator.predict(now)
            stay = math.exp(-estimator.compromise_rate * dt)
            a = math.exp(-estimator.failure_rate * dt) / stay
            b = (1.0 - stay) / stay
            odds = a * odds + b
            np.testing.assert_allclose(
                estimator.posterior, odds / (1.0 + odds), rtol=1e-12, atol=0.0
            )
            assert estimator.clock == now

    def test_unavailability_resets_belief(self, six_version_parameters):
        n = six_version_parameters.n_modules
        with registry_override():
            core = HealthMonitor(six_version_parameters, BatchMonitorConfig())
            everyone = np.ones((1, n), dtype=bool)
            nobody = np.zeros((1, n), dtype=bool)
            core.observe_round(2.0, everyone, everyone, 0)
            suspicious = core.report().posterior[0, 0]
            assert suspicious > 0.0
            # module 0 goes down, then comes back: belief restarts at 0
            down = everyone.copy()
            down[0, 0] = False
            core.observe_round(4.0, down, nobody, 0)
            assert np.isnan(core.report().posterior[0, 0])
            core.observe_round(6.0, everyone, nobody, 0)
            assert core.report().posterior[0, 0] == 0.0
            assert core.estimator.last_reset[0, 0] == 6.0


@st.composite
def selection_inputs(draw):
    groups = draw(st.integers(1, 5))
    n = draw(st.integers(1, 7))
    cells = groups * n
    # a small value pool makes ties (and the tie-breaks) common
    value = st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    posterior = np.array(draw(st.lists(value, min_size=cells, max_size=cells)))
    staleness = np.array(
        draw(
            st.lists(
                st.sampled_from([0.0, 10.0, 600.0, 1e4]),
                min_size=cells,
                max_size=cells,
            )
        )
    )
    available = np.array(
        draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    ).reshape(groups, n)
    tokens = np.array(
        draw(st.lists(st.integers(0, n), min_size=groups, max_size=groups))
    )
    r = draw(st.integers(0, n))
    bound = draw(st.one_of(st.none(), st.sampled_from([0.0, 0.5, 0.9, 1.0])))
    posterior = np.where(available, posterior.reshape(groups, n), np.nan)
    return posterior, available, staleness.reshape(groups, n), tokens, r, bound


class TestSelectionProperty:
    @settings(max_examples=300, deadline=None)
    @given(selection_inputs())
    def test_selection_matches_sorted_oracle(self, inputs):
        posterior, available, staleness, tokens, r, bound = inputs
        commands = select_rejuvenations(
            posterior, available, staleness, tokens, r, bound
        )
        assert commands.shape == available.shape
        assert not (commands & ~available).any()
        for g in range(available.shape[0]):
            down = int((~available[g]).sum())
            allowance = min(int(tokens[g]), max(0, r - down))
            picked = np.flatnonzero(commands[g]).tolist()
            assert len(picked) <= allowance
            if bound is not None:
                assert all(posterior[g, m] >= bound for m in picked)
            eligible = [
                m
                for m in range(available.shape[1])
                if available[g, m] and (bound is None or posterior[g, m] >= bound)
            ]
            ranked = sorted(
                eligible,
                key=lambda m: (-posterior[g, m], -staleness[g, m], m),
            )
            assert set(picked) == set(ranked[:allowance])


class TestMetricSurfaceParity:
    """monitor.* counters and histograms agree between the two paths."""

    @pytest.mark.parametrize("mode", ["observe", "targeted", "threshold"])
    def test_counters_and_disagreement_histogram(
        self, six_version_parameters, mode
    ):
        config = BatchConfig(
            parameters=six_version_parameters,
            groups=24,
            rounds=400,
            request_period=2.0,
            seed=23,
            chunk_size=8,
            monitor=BatchMonitorConfig(mode=mode),
        ).with_stationary_init()
        with registry_override() as batch_registry:
            batch = simulate_batch(config)
        with registry_override() as reference_registry:
            reference = simulate_reference(config)
        for name in MONITOR_COUNTERS:
            assert (
                batch_registry.counter(name).value
                == reference_registry.counter(name).value
            ), name
        batch_hist = batch_registry.histogram("monitor.disagreement")
        reference_hist = reference_registry.histogram("monitor.disagreement")
        assert batch_hist.count == reference_hist.count
        assert batch_hist.buckets == reference_hist.buckets
        # totals accumulate in different orders; equality is approximate
        assert batch_hist.total == pytest.approx(reference_hist.total)
        np.testing.assert_array_equal(
            batch.monitor.posterior, reference.monitor.posterior
        )
        assert batch.monitor.summary() == reference.monitor.summary()

    def test_summary_counts_follow_report(self, six_version_parameters):
        config = BatchConfig(
            parameters=six_version_parameters,
            groups=16,
            rounds=600,
            request_period=2.0,
            seed=31,
            chunk_size=16,
            monitor=BatchMonitorConfig(mode="targeted"),
        )
        with registry_override():
            report = simulate_batch(config)
        summary = report.monitor.summary()
        assert summary.compromises == report.monitor.compromises
        assert summary.triggers == report.monitor.triggers
        assert 0 <= report.monitor.detected <= report.monitor.compromises


class TestConfigurationSurface:
    @pytest.mark.parametrize(
        "options",
        [
            {"mode": "threshold", "bound": 1.5},
            {"bound": float("nan")},
            {"bound": -0.1},
            {"detection_threshold": -0.2},
            {"detection_threshold": float("inf")},
            {"mode": "targeted", "budget_cap": 0},
            {"mode": "targeted", "budget_cap": -3},
            {"budget_cap": 1.5},
            {"budget_cap": True},
        ],
        ids=repr,
    )
    def test_invalid_values_rejected(self, options):
        """The one validation of the batch and event-loop paths."""
        with pytest.raises(ParameterError):
            BatchMonitorConfig(**options)

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError, match="monitor mode"):
            BatchMonitorConfig(mode="psychic")

    def test_drive_modes_require_rejuvenation(self, four_version_parameters):
        with pytest.raises(SimulationError, match="rejuvenation disabled"):
            BatchConfig(
                parameters=four_version_parameters,
                groups=4,
                rounds=10,
                monitor=BatchMonitorConfig(mode="threshold"),
            )

    def test_observe_mode_never_drives(self, four_version_parameters):
        config = BatchConfig(
            parameters=four_version_parameters,
            groups=4,
            rounds=10,
            monitor=BatchMonitorConfig(mode="observe"),
        )
        assert not config.monitor.drives_clock
