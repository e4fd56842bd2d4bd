"""The batch-vs-reference differential harness.

:func:`repro.simulation.batch.simulate_batch` and
:func:`repro.simulation.batch.simulate_reference` interpret the same
seed schedule — the first with numpy array phases, the second element
by element through the trusted scalar components (``MLModule``,
``Voter``, ``HealthEstimator``, ``MonitorController``).  Equivalence
here is *exact*: identical per-round vote outcomes, identical
per-group failure counts, identical rejuvenation firings (round, group,
module), identical ground-truth transition tallies, identical census
counts, and bitwise-equal monitor posteriors for every configuration
family the runtime accepts, under both agreement models.

Fixed Fig. 2 configurations pin the paper's two instances plus the
monitor modes, attack campaigns, and stationary initialisation;
Hypothesis then widens the net over random (N, f, r, p, p') families.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.estimator import healthy_deviation_probability
from repro.obs.metrics import registry_override
from repro.perception.parameters import PerceptionParameters
from repro.simulation import (
    AgreementModel,
    AttackCampaign,
    BatchConfig,
    BatchMonitorConfig,
    simulate_batch,
    simulate_reference,
)

#: Monitor counters that must agree exactly between the two runtimes.
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


def assert_equivalent(config: BatchConfig, *, jobs: int = 1) -> None:
    """Run both runtimes over ``config`` and require exact agreement."""
    with registry_override() as batch_registry:
        batch = simulate_batch(config, jobs=jobs)
    with registry_override() as reference_registry:
        reference = simulate_reference(config)

    assert batch.outcomes is not None and reference.outcomes is not None
    np.testing.assert_array_equal(batch.outcomes, reference.outcomes)
    np.testing.assert_array_equal(
        batch.per_group_correct, reference.per_group_correct
    )
    np.testing.assert_array_equal(
        batch.per_group_errors, reference.per_group_errors
    )
    np.testing.assert_array_equal(
        batch.per_group_inconclusive, reference.per_group_inconclusive
    )
    assert set(batch.transitions) == set(reference.transitions)
    for kind in batch.transitions:
        np.testing.assert_array_equal(
            batch.transitions[kind], reference.transitions[kind]
        )
    assert batch.rejuvenations == reference.rejuvenations
    assert batch.census.dtype == reference.census.dtype == np.int64
    np.testing.assert_array_equal(batch.census, reference.census)
    assert (batch.requests, batch.correct, batch.errors, batch.inconclusive) == (
        reference.requests,
        reference.correct,
        reference.errors,
        reference.inconclusive,
    )

    if config.monitor is not None:
        assert batch.monitor is not None and reference.monitor is not None
        # posterior equality is bitwise, not approximate: both paths
        # must run the exact same float operations in the same order
        np.testing.assert_array_equal(
            batch.monitor.posterior, reference.monitor.posterior
        )
        np.testing.assert_array_equal(
            batch.monitor.available, reference.monitor.available
        )
        np.testing.assert_array_equal(
            batch.monitor.flagged, reference.monitor.flagged
        )
        assert batch.monitor.latency_sum == reference.monitor.latency_sum
        assert batch.monitor.latency_max == reference.monitor.latency_max
        for name in MONITOR_COUNTERS:
            assert (
                batch_registry.counter(name).value
                == reference_registry.counter(name).value
            ), name


def _config(parameters, **overrides) -> BatchConfig:
    base = dict(
        parameters=parameters,
        groups=24,
        rounds=80,
        request_period=2.0,
        seed=5,
        chunk_size=8,
        record_outcomes=True,
        record_rejuvenations=True,
    )
    base.update(overrides)
    return BatchConfig(**base)


class TestFigureTwoConfigurations:
    """The paper's two instances, with and without extras."""

    def test_four_version_no_rejuvenation(self, four_version_parameters):
        assert_equivalent(_config(four_version_parameters, rounds=120))

    def test_six_version_rejuvenation(self, six_version_parameters):
        # 80 rounds x 2 s crosses no clock tick; 400 x 2 s crosses one
        assert_equivalent(_config(six_version_parameters, rounds=400))

    def test_stationary_initialisation(self, six_version_parameters):
        assert_equivalent(
            _config(six_version_parameters, seed=9).with_stationary_init()
        )

    def test_attack_campaign(self, six_version_parameters):
        campaign = AttackCampaign.periodic(
            period=100.0,
            burst_duration=30.0,
            intensity=8.0,
            horizon=800.0,
        )
        assert_equivalent(
            _config(six_version_parameters, rounds=400, campaign=campaign)
        )

    def test_warmup_rounds_measured_window(self, four_version_parameters):
        assert_equivalent(
            _config(four_version_parameters, rounds=120, warmup_rounds=40)
        )


class TestMonitorModes:
    """Every monitor mode, including the clock-driving ones."""

    @pytest.mark.parametrize("mode", ["observe", "targeted", "threshold"])
    def test_mode_agrees(self, six_version_parameters, mode):
        assert_equivalent(
            _config(
                six_version_parameters,
                rounds=400,
                monitor=BatchMonitorConfig(mode=mode),
            )
        )

    def test_threshold_with_campaign_and_stationary_init(
        self, six_version_parameters
    ):
        campaign = AttackCampaign.periodic(
            period=200.0,
            burst_duration=60.0,
            intensity=8.0,
            horizon=800.0,
        )
        config = _config(
            six_version_parameters,
            rounds=400,
            seed=13,
            campaign=campaign,
            monitor=BatchMonitorConfig(mode="threshold", bound=0.9),
        ).with_stationary_init()
        assert_equivalent(config)


class TestWorkerInvariance:
    """jobs moves chunks across processes without changing anything."""

    def test_jobs_four_agrees_with_reference(self, six_version_parameters):
        assert_equivalent(
            _config(
                six_version_parameters,
                groups=32,
                rounds=400,
                monitor=BatchMonitorConfig(mode="threshold"),
            ),
            jobs=4,
        )

    def test_jobs_one_and_four_identical(self, six_version_parameters):
        config = _config(
            six_version_parameters,
            groups=32,
            rounds=400,
            monitor=BatchMonitorConfig(mode="targeted"),
        )
        with registry_override() as first_registry:
            first = simulate_batch(config, jobs=1)
        with registry_override() as second_registry:
            second = simulate_batch(config, jobs=4)
        np.testing.assert_array_equal(first.outcomes, second.outcomes)
        np.testing.assert_array_equal(first.census, second.census)
        assert first.rejuvenations == second.rejuvenations
        np.testing.assert_array_equal(
            first.monitor.posterior, second.monitor.posterior
        )
        for name in MONITOR_COUNTERS:
            assert (
                first_registry.counter(name).value
                == second_registry.counter(name).value
            ), name
        first_hist = first_registry.histogram("monitor.disagreement")
        second_hist = second_registry.histogram("monitor.disagreement")
        assert first_hist.count == second_hist.count
        assert first_hist.buckets == second_hist.buckets


def _family_parameters(draw) -> PerceptionParameters:
    f = draw(st.integers(min_value=1, max_value=2))
    r = draw(st.integers(min_value=1, max_value=3))
    rejuvenation = draw(st.booleans())
    minimum = 3 * f + 1 + (2 * r if rejuvenation else 0)
    n_modules = minimum + draw(st.integers(min_value=0, max_value=2))
    return PerceptionParameters(
        n_modules=n_modules,
        f=f,
        r=r,
        rejuvenation=rejuvenation,
        alpha=draw(
            st.floats(min_value=0.05, max_value=0.95, allow_nan=False)
        ),
        p=draw(st.floats(min_value=0.01, max_value=0.4, allow_nan=False)),
        p_prime=draw(
            st.floats(min_value=0.05, max_value=0.95, allow_nan=False)
        ),
        mttc=draw(st.floats(min_value=50.0, max_value=4000.0)),
        mttf=draw(st.floats(min_value=50.0, max_value=4000.0)),
        mttr=draw(st.floats(min_value=1.0, max_value=20.0)),
        rejuvenation_time_per_module=draw(
            st.floats(min_value=1.0, max_value=10.0)
        ),
        rejuvenation_interval=600.0,
    )


class TestHypothesisFamilies:
    """Random (N, f, r, p, p') families stay equivalent."""

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_family_agrees(self, data):
        parameters = _family_parameters(data.draw)
        monitor = data.draw(
            st.sampled_from([None, "observe", "targeted", "threshold"])
        )
        if monitor is not None and monitor != "observe":
            if not parameters.rejuvenation:
                monitor = "observe"
        # the estimator needs separated deviation likelihoods
        if (
            monitor is not None
            and parameters.p_prime
            <= healthy_deviation_probability(parameters)
        ):
            monitor = None
        config = _config(
            parameters,
            groups=12,
            rounds=60,
            seed=data.draw(st.integers(min_value=0, max_value=2**16)),
            chunk_size=5,
            monitor=(
                BatchMonitorConfig(mode=monitor) if monitor is not None else None
            ),
        )
        assert_equivalent(config)

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_random_family_agrees_per_label(self, data):
        """Per-label voting: the batch classifies from the label tally
        and the reference through ``Voter`` under the same agreement."""
        parameters = _family_parameters(data.draw)
        monitor = data.draw(st.sampled_from([None, "observe"]))
        if (
            monitor is not None
            and parameters.p_prime
            <= healthy_deviation_probability(parameters)
        ):
            monitor = None
        config = _config(
            parameters,
            groups=12,
            rounds=60,
            seed=data.draw(st.integers(min_value=0, max_value=2**16)),
            chunk_size=5,
            n_labels=data.draw(st.integers(min_value=2, max_value=5)),
            agreement=AgreementModel.PER_LABEL,
            monitor=(
                BatchMonitorConfig(mode=monitor) if monitor is not None else None
            ),
        )
        assert_equivalent(config)
