"""Certificate gating for iterative (sparse-route) solutions.

A corrupted sparse π — perturbed entry, broken normalization, missing
or dishonest solver record — must fail certification, be refused by the
engine cache, and never be served or stored.
"""

import numpy as np
import pytest

import repro.dspn.steady_state as steady_state_module
from repro.dspn.steady_state import SteadyStateResult, solve_steady_state
from repro.engine.cache import active_cache, cache_override
from repro.engine.hashing import net_fingerprint, solver_cache_key
from repro.errors import VerificationError
from repro.markov.sparse import SparseSolveInfo
from repro.perception.fleet import FleetParameters, build_fleet_net
from repro.petri import NetBuilder
from repro.verify import certify_steady_state


def ring_net(name="sparse-certify-ring", states=6):
    """A small exponential ring — cheap, ergodic, sparse-eligible."""
    builder = NetBuilder(name)
    places = [f"P{i}" for i in range(states)]
    builder.place(places[0], tokens=1)
    for place in places[1:]:
        builder.place(place)
    for i, place in enumerate(places):
        builder.exponential(
            f"t{i}",
            rate=0.2 + 0.3 * i,
            inputs={place: 1},
            outputs={places[(i + 1) % states]: 1},
        )
    return builder.build()


def corrupt(result, pi, *, solver_info="keep"):
    """A copy of ``result`` with ``pi`` (and optionally the record) replaced."""
    return SteadyStateResult(
        markings=result.markings,
        pi=np.asarray(pi, dtype=float),
        method=result.method,
        graph=result.graph,
        solver_info=result.solver_info if solver_info == "keep" else solver_info,
    )


@pytest.fixture()
def sparse_result():
    with cache_override(enabled=False):
        return solve_steady_state(ring_net(), method="sparse", verify=True)


class TestPassingSparseCertificates:
    def test_sparse_certificate_passes(self, sparse_result):
        certificate = sparse_result.certificate
        assert certificate is not None
        assert certificate.passed
        assert certificate.method == "sparse"
        assert {check.name for check in certificate.checks} == {
            "pi-nonnegative",
            "pi-normalized",
            "sparse-balance",
            "sparse-solver-record",
        }

    def test_fleet_scale_certificate_passes(self):
        net = build_fleet_net(FleetParameters.nv15_defaults())
        with cache_override(enabled=False):
            result = solve_steady_state(net, method="sparse", verify=True)
        assert result.certificate is not None
        assert result.certificate.passed
        record = next(
            check
            for check in result.certificate.checks
            if check.name == "sparse-solver-record"
        )
        assert record.detail.startswith("superlu (fill ")

    def test_certificate_serializes_the_solver_record(self, sparse_result):
        payload = sparse_result.certificate.to_dict()
        names = [check["name"] for check in payload["checks"]]
        assert "sparse-solver-record" in names


class TestCorruptedSparsePi:
    def test_perturbed_entry_fails_balance(self, sparse_result):
        pi = np.array(sparse_result.pi)
        pi[0] += 0.05
        pi[1] -= 0.05
        certificate = certify_steady_state(corrupt(sparse_result, pi))
        assert not certificate.passed
        assert "sparse-balance" in {c.name for c in certificate.failures()}

    def test_broken_normalization_fails(self, sparse_result):
        certificate = certify_steady_state(
            corrupt(sparse_result, np.array(sparse_result.pi) * 1.01)
        )
        assert not certificate.passed
        assert "pi-normalized" in {c.name for c in certificate.failures()}

    def test_negative_mass_fails(self, sparse_result):
        pi = np.array(sparse_result.pi)
        shift = pi[0] + 0.01
        pi[0] = -0.01
        pi[1] += shift  # keep the sum at 1 so only nonnegativity trips
        certificate = certify_steady_state(corrupt(sparse_result, pi))
        assert "pi-nonnegative" in {c.name for c in certificate.failures()}

    def test_missing_solver_record_fails(self, sparse_result):
        certificate = certify_steady_state(
            corrupt(sparse_result, sparse_result.pi, solver_info=None)
        )
        assert not certificate.passed
        failure = next(
            c for c in certificate.failures() if c.name == "sparse-solver-record"
        )
        assert "no solver record" in failure.detail

    def test_loosened_residual_record_fails(self, sparse_result):
        # a record claiming it accepted a residual above its own bar is
        # a solver that lied about convergence — refuse it
        info = sparse_result.solver_info
        dishonest = SparseSolveInfo(
            solver=info.solver,
            n_states=info.n_states,
            nnz=info.nnz,
            iterations=info.iterations,
            refinements=info.refinements,
            residual=1e-3,
            tolerance=info.tolerance,
            preconditioner=info.preconditioner,
            reordering=info.reordering,
        )
        certificate = certify_steady_state(
            corrupt(sparse_result, sparse_result.pi, solver_info=dishonest)
        )
        assert not certificate.passed
        assert "sparse-solver-record" in {c.name for c in certificate.failures()}


class TestSparseCacheGating:
    def test_poisoned_sparse_entry_is_refused_and_recomputed(self, sparse_result):
        net = ring_net()
        pi = np.array(sparse_result.pi)
        pi[0], pi[-1] = pi[-1], pi[0]
        poisoned = corrupt(sparse_result, pi)
        poisoned.certificate = certify_steady_state(poisoned)
        assert not poisoned.certificate.passed
        with cache_override(enabled=True, directory=None):
            key = solver_cache_key(net, max_states=200_000, method="sparse")
            active_cache().put(key, poisoned)
            served = solve_steady_state(net, method="sparse", verify=True)
        assert served is not poisoned
        assert served.certificate.passed
        np.testing.assert_allclose(served.pi, sparse_result.pi, atol=1e-12)

    def test_uncertified_sparse_entry_is_certified_in_place(self, sparse_result):
        net = ring_net()
        bare = corrupt(sparse_result, sparse_result.pi)
        assert bare.certificate is None
        with cache_override(enabled=True, directory=None):
            key = solver_cache_key(net, max_states=200_000, method="sparse")
            active_cache().put(key, bare)
            served = solve_steady_state(net, method="sparse", verify=True)
        assert served is bare  # upgraded, not recomputed
        assert served.certificate is not None
        assert served.certificate.passed

    def test_fresh_corrupted_solve_raises_and_is_never_cached(
        self, sparse_result, monkeypatch
    ):
        net = ring_net()
        pi = np.array(sparse_result.pi)
        pi[0] += 0.2
        pi[1] -= 0.2

        def corrupted_solve(*args, **kwargs):
            return corrupt(sparse_result, pi)

        monkeypatch.setattr(steady_state_module, "_solve_uncached", corrupted_solve)
        with cache_override(enabled=True, directory=None):
            with pytest.raises(VerificationError, match="sparse-balance"):
                solve_steady_state(net, method="sparse", verify=True)
            key = solver_cache_key(net, max_states=200_000, method="sparse")
            assert active_cache().get(key) is None

    def test_refused_entry_never_reaches_unverified_callers_after_refusal(
        self, sparse_result
    ):
        """After a verified solve refuses a poisoned entry, the cache
        holds the recomputed (passing) result — not the poison."""
        net = ring_net()
        pi = np.array(sparse_result.pi)
        pi[0], pi[-1] = pi[-1], pi[0]
        poisoned = corrupt(sparse_result, pi)
        poisoned.certificate = certify_steady_state(poisoned)
        with cache_override(enabled=True, directory=None):
            key = solver_cache_key(net, max_states=200_000, method="sparse")
            active_cache().put(key, poisoned)
            solve_steady_state(net, method="sparse", verify=True)
            later = solve_steady_state(net, method="sparse")
        assert later is not poisoned
        np.testing.assert_allclose(later.pi, sparse_result.pi, atol=1e-12)
