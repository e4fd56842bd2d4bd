"""Certificate checks: passing solves, hand-corrupted π, cache refusal."""

import numpy as np
import pytest

from repro.dspn.steady_state import SteadyStateResult, solve_steady_state
from repro.engine.cache import active_cache, cache_override
from repro.engine.hashing import net_fingerprint, solver_cache_key
from repro.errors import ParameterError, VerificationError
from repro.petri import NetBuilder
from repro.verify import (
    CERTIFICATE_VERSION,
    Certificate,
    CertificateCheck,
    certify_expected_reward,
    certify_steady_state,
)
from repro.verify.certify import DEFAULT_TOLERANCE, _reward_checks


def cycle_net(name="certify-cycle"):
    builder = NetBuilder(name)
    builder.place("A", tokens=2).place("B")
    builder.exponential("go", rate=0.3, inputs={"A": 1}, outputs={"B": 1})
    builder.exponential("back", rate=1.1, inputs={"B": 1}, outputs={"A": 1})
    return builder.build()


def clocked_net(name="certify-clock"):
    builder = NetBuilder(name)
    builder.place("A", tokens=1).place("B")
    builder.deterministic("tick", delay=2.0, inputs={"A": 1}, outputs={"B": 1})
    builder.exponential("back", rate=0.7, inputs={"B": 1}, outputs={"A": 1})
    return builder.build()


def corrupt(result, pi):
    """A copy of ``result`` with ``pi`` replaced by a corrupted vector."""
    return SteadyStateResult(
        markings=result.markings,
        pi=np.asarray(pi, dtype=float),
        method=result.method,
        graph=result.graph,
        solver_info=result.solver_info,
    )


class TestPassingCertificates:
    def test_ctmc_certificate_passes(self):
        with cache_override(enabled=False):
            result = solve_steady_state(cycle_net(), verify=True)
        certificate = result.certificate
        assert certificate is not None
        assert certificate.passed
        assert certificate.method == "sparse"
        assert certificate.max_residual < 1e-9
        assert {check.name for check in certificate.checks} == {
            "pi-nonnegative",
            "pi-normalized",
            "sparse-balance",
            "sparse-solver-record",
        }

    def test_mrgp_certificate_passes(self):
        with cache_override(enabled=False):
            result = solve_steady_state(clocked_net(), verify=True)
        certificate = result.certificate
        assert certificate.passed
        assert certificate.method == "mrgp"
        assert {check.name for check in certificate.checks} == {
            "pi-nonnegative",
            "pi-normalized",
            "mrgp-embedded-fixed-point",
            "mrgp-renewal",
        }

    def test_verify_off_attaches_nothing(self):
        with cache_override(enabled=False):
            result = solve_steady_state(cycle_net())
        assert result.certificate is None

    def test_custom_tolerance_recorded(self):
        with cache_override(enabled=False):
            result = solve_steady_state(cycle_net(), verify=1e-6)
        assert result.certificate.tolerance == 1e-6

    def test_invalid_verify_arguments_rejected(self):
        for bad in (0.0, -1e-9, "tight"):
            with pytest.raises(ParameterError):
                solve_steady_state(cycle_net(), verify=bad)

    def test_round_trips_to_dict(self):
        with cache_override(enabled=False):
            result = solve_steady_state(cycle_net(), verify=True)
        payload = result.certificate.to_dict()
        assert payload["passed"] is True
        assert payload["version"] == CERTIFICATE_VERSION
        assert len(payload["checks"]) == 4


class TestCorruptedPi:
    def solved(self):
        with cache_override(enabled=False):
            return solve_steady_state(cycle_net(), verify=True)

    def test_negative_mass_fails(self):
        result = self.solved()
        pi = result.pi.copy()
        pi[0], pi[1] = -pi[0], pi[1] + 2 * pi[0]  # keep the sum at one
        certificate = certify_steady_state(corrupt(result, pi))
        assert not certificate.passed
        assert "pi-nonnegative" in {c.name for c in certificate.failures()}

    def test_unnormalized_fails(self):
        result = self.solved()
        certificate = certify_steady_state(corrupt(result, result.pi * 1.5))
        assert "pi-normalized" in {c.name for c in certificate.failures()}

    def test_balance_violation_fails(self):
        result = self.solved()
        pi = result.pi.copy()
        pi[0], pi[-1] = pi[-1], pi[0]  # permuted mass: normalized but wrong
        certificate = certify_steady_state(corrupt(result, pi))
        assert "sparse-balance" in {c.name for c in certificate.failures()}

    def test_mrgp_corruption_fails(self):
        with cache_override(enabled=False):
            result = solve_steady_state(clocked_net(), verify=True)
        pi = result.pi.copy()
        pi[0], pi[-1] = pi[-1], pi[0]
        certificate = certify_steady_state(corrupt(result, pi))
        assert "mrgp-renewal" in {c.name for c in certificate.failures()}

    def test_unknown_method_fails(self):
        result = self.solved()
        bad = SteadyStateResult(
            markings=result.markings,
            pi=result.pi,
            method="quantum",
            graph=result.graph,
        )
        certificate = certify_steady_state(bad)
        assert "known-method" in {c.name for c in certificate.failures()}

    def test_staleness_on_version_and_fingerprint(self):
        certificate = certify_steady_state(
            self.solved(), fingerprint="abc", tolerance=1e-9
        )
        assert certificate.is_current("abc")
        assert not certificate.is_current("other")
        stale = Certificate(
            fingerprint="abc",
            method="sparse",
            n_states=1,
            tolerance=1e-9,
            checks=(),
            version=CERTIFICATE_VERSION - 1,
        )
        assert not stale.is_current("abc")


class TestRewardCertificates:
    def test_bounds_and_recomputation_pass(self):
        with cache_override(enabled=False):
            result = solve_steady_state(cycle_net(), verify=True)
        reward = lambda marking: float(marking["A"])
        value = result.expected_reward(reward)
        checks = certify_expected_reward(result, reward, value)
        assert all(check.passed for check in checks)

    def test_out_of_bounds_value_fails(self):
        with cache_override(enabled=False):
            result = solve_steady_state(cycle_net(), verify=True)
        reward = lambda marking: float(marking["A"])
        checks = certify_expected_reward(result, reward, 99.0)
        names = {check.name for check in checks if not check.passed}
        assert names == {"reward-bounds", "reward-recomputation"}

    def test_reward_vector_path_matches_the_reward_function(self):
        # verify's runner certifies the Eq. 1 vector it already holds
        with cache_override(enabled=False):
            result = solve_steady_state(cycle_net(), verify=True)
        reward = lambda marking: float(marking["A"])
        rewards = np.array([float(marking["A"]) for marking in result.markings])
        for value in (result.expected_reward(reward), 99.0):
            assert _reward_checks(
                result, rewards, value, DEFAULT_TOLERANCE
            ) == certify_expected_reward(result, reward, value)


class TestCacheRefusal:
    def test_corrupted_cache_entry_is_refused_and_recomputed(self):
        net = cycle_net("certify-refusal")
        with cache_override(enabled=True, directory=None):
            good = solve_steady_state(net, verify=True)
            cache = active_cache()
            key = solver_cache_key(net, max_states=200_000, method="auto")
            assert cache.get(key) is good

            # poison the cache: permuted pi, stamped with a *passing-looking*
            # but failing certificate after re-check
            pi = good.pi.copy()
            pi[0], pi[-1] = pi[-1], pi[0]
            poisoned = corrupt(good, pi)
            poisoned.certificate = certify_steady_state(
                poisoned, fingerprint=net_fingerprint(net)
            )
            assert not poisoned.certificate.passed
            cache.put(key, poisoned)

            served = solve_steady_state(net, verify=True)
            assert served is not poisoned
            assert served.certificate.passed
            np.testing.assert_allclose(served.pi, good.pi)
            # the refused entry was replaced by the verified recomputation
            assert cache.get(key) is served

    def test_dense_route_entry_with_version_2_certificate_is_refused(self):
        # an entry written by the removed dense route: method "ctmc", no
        # solver record, and a passing version-2 "ctmc-balance" certificate
        net = cycle_net("certify-dense-legacy")
        fingerprint = net_fingerprint(net)
        with cache_override(enabled=True, directory=None):
            good = solve_steady_state(net)
            legacy = SteadyStateResult(
                markings=good.markings,
                pi=good.pi,
                method="ctmc",
                graph=good.graph,
            )
            legacy.certificate = Certificate(
                fingerprint=fingerprint,
                method="ctmc",
                n_states=len(good.pi),
                tolerance=1e-9,
                checks=(CertificateCheck("ctmc-balance", True, 0.0, 1e-9),),
                version=2,
            )
            assert not legacy.certificate.is_current(fingerprint)
            cache = active_cache()
            key = solver_cache_key(net, max_states=200_000, method="auto")
            cache.put(key, legacy)

            served = solve_steady_state(net, verify=True)
            assert served is not legacy
            assert served.method == "sparse"
            assert served.certificate.passed
            assert served.certificate.version == CERTIFICATE_VERSION
            np.testing.assert_allclose(served.pi, good.pi)
            assert cache.get(key) is served

    def test_uncertified_entry_is_certified_in_place(self):
        net = cycle_net("certify-upgrade")
        with cache_override(enabled=True, directory=None):
            plain = solve_steady_state(net)  # no certificate attached
            assert plain.certificate is None
            served = solve_steady_state(net, verify=True)
            assert served is plain  # same entry, upgraded in place
            assert served.certificate is not None
            assert served.certificate.passed

    def test_stale_fingerprint_triggers_recertification(self):
        net = cycle_net("certify-stale")
        with cache_override(enabled=True, directory=None):
            good = solve_steady_state(net, verify=True)
            good.certificate = Certificate(
                fingerprint="not-this-net",
                method=good.certificate.method,
                n_states=good.certificate.n_states,
                tolerance=good.certificate.tolerance,
                checks=good.certificate.checks,
            )
            served = solve_steady_state(net, verify=True)
            assert served.certificate.fingerprint == net_fingerprint(net)
            assert served.certificate.passed

    def test_fresh_failing_solve_raises_verification_error(self, monkeypatch):
        # a freshly computed solution that fails its certificate must
        # raise (and never be cached), not be returned silently
        import repro.dspn.steady_state as module

        original = module._solve_graph

        def corrupted_solve(net, graph, method):
            result = original(net, graph, method)
            pi = result.pi.copy()
            pi[0], pi[-1] = pi[-1], pi[0]
            return corrupt(result, pi)

        monkeypatch.setattr(module, "_solve_graph", corrupted_solve)
        net = cycle_net("certify-fresh-failure")
        with cache_override(enabled=True, directory=None):
            with pytest.raises(VerificationError, match="failed certification"):
                solve_steady_state(net, verify=True)
            key = solver_cache_key(net, max_states=200_000, method="auto")
            assert active_cache().get(key) is None
