"""Property tests of the canonical net fingerprint (hypothesis).

The two contracts the cache depends on:

* **invariance** — the digest must not change under place/transition
  insertion-order permutations (satellite a), and
* **distinctness** — any change to a rate, delay, weight or initial
  marking must change the digest.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine import (
    net_fingerprint,
    reliability_fingerprint,
    reward_cache_key,
    solver_cache_key,
)
from repro.nversion.reliability import GeneralizedReliability
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_rejuvenation_net
from repro.petri import NetBuilder

PLACES = (("P1", 1), ("P2", 0), ("P3", 2))
TRANSITIONS = (
    ("t12", 0.5, "P1", "P2"),
    ("t23", 1.5, "P2", "P3"),
    ("t31", 2.0, "P3", "P1"),
)


def _cycle_net(
    place_order=PLACES,
    transition_order=TRANSITIONS,
    *,
    name="cycle",
    tokens=None,
    rates=None,
    delay=None,
):
    builder = NetBuilder(name)
    for place, initial in place_order:
        builder.place(place, tokens=tokens.get(place, initial) if tokens else initial)
    for transition, rate, source, target in transition_order:
        builder.exponential(
            transition,
            rate=rates.get(transition, rate) if rates else rate,
            inputs={source: 1},
            outputs={target: 1},
        )
    if delay is not None:
        builder.deterministic(
            "tick", delay=delay, inputs={"P1": 1}, outputs={"P2": 1}
        )
    return builder.build()


REFERENCE = net_fingerprint(_cycle_net())


class TestInsertionOrderInvariance:
    @given(st.permutations(PLACES), st.permutations(TRANSITIONS))
    @settings(max_examples=30, deadline=None)
    def test_permuted_builds_hash_identically(self, place_order, transition_order):
        assert net_fingerprint(_cycle_net(place_order, transition_order)) == REFERENCE

    def test_net_name_is_excluded(self):
        assert net_fingerprint(_cycle_net(name="renamed")) == REFERENCE

    def test_rebuilt_perception_nets_hash_identically(self):
        parameters = PerceptionParameters.six_version_defaults()
        first = build_rejuvenation_net(parameters)
        second = build_rejuvenation_net(parameters)
        assert first is not second
        assert net_fingerprint(first) == net_fingerprint(second)


class TestDistinctness:
    @given(st.floats(0.01, 50.0), st.floats(0.01, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_differing_rates_hash_differently(self, rate_a, rate_b):
        a = net_fingerprint(_cycle_net(rates={"t12": rate_a}))
        b = net_fingerprint(_cycle_net(rates={"t12": rate_b}))
        assert (a == b) == (rate_a == rate_b)

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_differing_initial_markings_hash_differently(self, tokens_a, tokens_b):
        a = net_fingerprint(_cycle_net(tokens={"P2": tokens_a}))
        b = net_fingerprint(_cycle_net(tokens={"P2": tokens_b}))
        assert (a == b) == (tokens_a == tokens_b)

    @given(st.floats(0.1, 100.0), st.floats(0.1, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_differing_delays_hash_differently(self, delay_a, delay_b):
        a = net_fingerprint(_cycle_net(delay=delay_a))
        b = net_fingerprint(_cycle_net(delay=delay_b))
        assert (a == b) == (delay_a == delay_b)

    def test_perception_parameters_reach_the_digest(self):
        base = PerceptionParameters.four_version_defaults()
        digests = {
            net_fingerprint(build_no_rejuvenation_net(base)),
            net_fingerprint(build_no_rejuvenation_net(base.replace(mttc=999.0))),
            net_fingerprint(build_no_rejuvenation_net(base.replace(mttf=999.0))),
            net_fingerprint(build_no_rejuvenation_net(base.replace(mttr=9.0))),
        }
        assert len(digests) == 4

    def test_rejuvenation_variants_reach_the_digest(self):
        parameters = PerceptionParameters.six_version_defaults()
        digests = {
            net_fingerprint(build_rejuvenation_net(parameters)),
            net_fingerprint(build_rejuvenation_net(parameters, clock="exponential")),
            net_fingerprint(build_rejuvenation_net(parameters, selection="oracle")),
            net_fingerprint(build_rejuvenation_net(parameters, lost_ticks=True)),
        }
        assert len(digests) == 4


class TestCacheKeys:
    def test_solver_key_separates_options(self):
        net = _cycle_net()
        keys = {
            solver_cache_key(net, max_states=100, method="auto"),
            solver_cache_key(net, max_states=200, method="auto"),
            solver_cache_key(net, max_states=100, method="mrgp"),
        }
        assert len(keys) == 3

    def test_reward_key_separates_reliability_functions(self):
        net = _cycle_net()
        fp_a = reliability_fingerprint(
            GeneralizedReliability(n_modules=6, threshold=4, p=0.1, p_prime=0.5, alpha=0.9)
        )
        fp_b = reliability_fingerprint(
            GeneralizedReliability(n_modules=6, threshold=3, p=0.1, p_prime=0.5, alpha=0.9)
        )
        assert fp_a != fp_b
        assert reward_cache_key(
            net_fingerprint(net), reliability_fp=fp_a, max_states=100
        ) != reward_cache_key(net_fingerprint(net), reliability_fp=fp_b, max_states=100)

    def test_reward_key_separates_solver_methods(self):
        net = _cycle_net()
        fp = reliability_fingerprint(
            GeneralizedReliability(n_modules=6, threshold=4, p=0.1, p_prime=0.5, alpha=0.9)
        )
        keys = {
            reward_cache_key(net_fingerprint(net), reliability_fp=fp, max_states=100, method=method)
            for method in ("auto", "mrgp", "sparse")
        }
        assert len(keys) == 3

    def test_reward_and_solver_keys_never_alias(self):
        net = _cycle_net()
        fp = reliability_fingerprint(
            GeneralizedReliability(n_modules=6, threshold=4, p=0.1, p_prime=0.5, alpha=0.9)
        )
        assert solver_cache_key(
            net, max_states=100, method="auto"
        ) != reward_cache_key(net_fingerprint(net), reliability_fp=fp, max_states=100)

    def test_ad_hoc_callables_have_no_fingerprint(self):
        assert reliability_fingerprint(lambda i, j, k: 1.0) is None
