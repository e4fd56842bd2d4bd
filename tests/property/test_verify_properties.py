"""Property-based tests of the verification layer (ISSUE 3, satellite 3).

Two directions:

* *soundness of the linter*: nets drawn with a deliberately injected
  defect (a dead transition fed by a never-marked place, a dangling
  dead-end place) must be flagged with the matching rule id, no matter
  which random healthy net the defect rides on;
* *completeness of the certificates*: across the random-net families the
  simulator-agreement suite already exercises, every analytic solution
  must earn a passing certificate — certificates may never reject a
  correct solver result.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.dspn import solve_steady_state
from repro.engine.cache import cache_override
from repro.petri import NetBuilder
from repro.verify import certify_expected_reward, certify_steady_state, lint_net
from tests.property.test_simulator_agreement import (
    random_clocked_net,
    random_cycle_net,
)


@st.composite
def healthy_cycle_builders(draw):
    """A random live token cycle, returned *unbuilt* so defects can be
    injected before ``build()``."""
    n_places = draw(st.integers(2, 5))
    tokens = draw(st.integers(1, 4))
    rates = [draw(st.floats(0.05, 3.0)) for _ in range(n_places)]
    builder = NetBuilder("prop-cycle")
    names = [f"P{i}" for i in range(n_places)]
    for i, name in enumerate(names):
        builder.place(name, tokens=tokens if i == 0 else 0)
    for i, rate in enumerate(rates):
        builder.exponential(
            f"t{i}",
            rate=rate,
            inputs={names[i]: 1},
            outputs={names[(i + 1) % n_places]: 1},
        )
    return builder, names


class TestMalformedNetsAreFlagged:
    @given(healthy_cycle_builders())
    @settings(max_examples=25, deadline=None)
    def test_injected_dead_transition_is_flagged(self, built):
        builder, names = built
        # a transition fed by a place nothing ever marks: structurally
        # present, semantically dead — exactly rule V001's charter
        builder.place("Starved")
        builder.exponential(
            "starved-t", rate=1.0, inputs={"Starved": 1}, outputs={names[0]: 1}
        )
        report = lint_net(builder.build())
        assert "starved-t" in {f.element for f in report.by_rule("V001")}
        assert not report.ok

    @given(healthy_cycle_builders())
    @settings(max_examples=25, deadline=None)
    def test_injected_dangling_place_is_flagged(self, built):
        builder, _ = built
        # an arc-less place dangling off the net: disconnected (V006)
        builder.place("Dangling")
        report = lint_net(builder.build())
        assert "Dangling" in {f.element for f in report.by_rule("V006")}

    @given(healthy_cycle_builders())
    @settings(max_examples=25, deadline=None)
    def test_healthy_cycles_stay_clean(self, built):
        builder, _ = built
        report = lint_net(builder.build())
        assert report.findings == ()


class TestCertificatesAcceptCorrectSolutions:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_cycle_family_certifies(self, seed):
        net = random_cycle_net(np.random.default_rng(seed))
        with cache_override(enabled=False):
            result = solve_steady_state(net)
        certificate = certify_steady_state(result)
        assert certificate.passed, certificate.render()
        assert certificate.method == "sparse"

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_clocked_family_certifies(self, seed):
        net = random_clocked_net(np.random.default_rng(seed))
        with cache_override(enabled=False):
            result = solve_steady_state(net)
        certificate = certify_steady_state(result)
        assert certificate.passed, certificate.render()
        assert certificate.method == "mrgp"

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_reward_certificates_accept_expected_reward(self, seed):
        net = random_cycle_net(np.random.default_rng(seed))
        with cache_override(enabled=False):
            result = solve_steady_state(net)
        reward = lambda marking: float(marking["A"])
        value = result.expected_reward(reward)
        checks = certify_expected_reward(result, reward, value)
        assert all(check.passed for check in checks), [
            check.render() for check in checks
        ]
