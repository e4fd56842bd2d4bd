"""Unit and integration tests of the two-tier solver cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dspn.steady_state import solve_steady_state
from repro.engine import cache_override, configure_cache, hashing
from repro.engine.cache import SolverCache, active_cache, cache_settings
from repro.perception.evaluation import Evaluation
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.parameters import PerceptionParameters
from repro.petri import NetBuilder


def _entry_files(directory):
    return sorted(directory.glob("*/*.pkl"))


class TestInMemoryTier:
    def test_lru_evicts_oldest(self):
        cache = SolverCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_get_refreshes_recency(self):
        cache = SolverCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # 'a' is now most recent; 'b' must evict first
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_stats_count_hits_and_misses(self):
        cache = SolverCache()
        cache.get("missing")
        cache.put("k", 42)
        cache.get("k")
        assert cache.stats() == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "disk_hits": 0,
            "rejected": 0,
            "evictions": 0,
            "collisions_prevented": 0,
        }

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError, match="maxsize"):
            SolverCache(maxsize=0)


class TestDiskTier:
    def test_roundtrip_across_instances(self, tmp_path):
        SolverCache(directory=tmp_path).put("key", {"pi": [0.5, 0.5]})
        fresh = SolverCache(directory=tmp_path)
        assert fresh.get("key") == {"pi": [0.5, 0.5]}
        assert fresh.stats()["disk_hits"] == 1

    def test_entries_are_sharded_by_key_prefix(self, tmp_path):
        SolverCache(directory=tmp_path).put("abcdef", 1)
        assert (tmp_path / "ab" / "abcdef.pkl").is_file()

    def test_truncated_entry_is_rejected_and_deleted(self, tmp_path):
        cache = SolverCache(directory=tmp_path)
        cache.put("key", list(range(100)))
        (path,) = _entry_files(tmp_path)
        path.write_bytes(path.read_bytes()[:-10])
        fresh = SolverCache(directory=tmp_path)
        assert fresh.get("key") is None
        assert fresh.rejected == 1
        assert not path.exists()

    def test_clear_disk_removes_entries(self, tmp_path):
        cache = SolverCache(directory=tmp_path)
        cache.put("key", 1)
        cache.clear(disk=True)
        assert _entry_files(tmp_path) == []
        assert SolverCache(directory=tmp_path).get("key") is None


class TestCachePoisoningGuard:
    """Satellite (d): a mutated on-disk entry must never be served."""

    def test_flipped_payload_byte_forces_recompute(self, tmp_path):
        net = build_no_rejuvenation_net(
            PerceptionParameters.four_version_defaults()
        )
        with cache_override(enabled=True, directory=tmp_path):
            honest = solve_steady_state(net)
        (path,) = _entry_files(tmp_path)

        poisoned = bytearray(path.read_bytes())
        poisoned[-1] ^= 0xFF
        path.write_bytes(bytes(poisoned))

        with cache_override(enabled=True, directory=tmp_path) as cache:
            recomputed = solve_steady_state(net)
            assert cache.rejected == 1
            assert cache.disk_hits == 0
        np.testing.assert_array_equal(recomputed.pi, honest.pi)
        assert recomputed.markings == honest.markings

    def test_tampered_digest_line_forces_recompute(self, tmp_path):
        net = build_no_rejuvenation_net(
            PerceptionParameters.four_version_defaults()
        )
        with cache_override(enabled=True, directory=tmp_path):
            solve_steady_state(net)
        (path,) = _entry_files(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("0") if raw[0] != ord("0") else ord("1")
        path.write_bytes(bytes(raw))

        with cache_override(enabled=True, directory=tmp_path) as cache:
            solve_steady_state(net)
            assert cache.rejected == 1

    def test_rejected_entry_is_republished_good(self, tmp_path):
        net = build_no_rejuvenation_net(
            PerceptionParameters.four_version_defaults()
        )
        with cache_override(enabled=True, directory=tmp_path):
            solve_steady_state(net)
        (path,) = _entry_files(tmp_path)
        path.write_bytes(b"garbage")

        with cache_override(enabled=True, directory=tmp_path):
            solve_steady_state(net)  # rejects, recomputes, re-stores
        with cache_override(enabled=True, directory=tmp_path) as cache:
            solve_steady_state(net)
            assert cache.stats()["disk_hits"] == 1
            assert cache.stats()["rejected"] == 0


class TestSolverRevision:
    """Entries written by older solver code miss instead of being served."""

    @staticmethod
    def _expected_reliability():
        parameters = PerceptionParameters.four_version_defaults()
        return Evaluation(parameters).expected_reliability()

    def test_entry_stored_under_previous_revision_is_a_miss(
        self, tmp_path, monkeypatch
    ):
        with monkeypatch.context() as patch:
            patch.setattr(
                hashing, "SOLVER_REVISION", hashing.SOLVER_REVISION - 1
            )
            with cache_override(enabled=True, directory=tmp_path):
                stored = self._expected_reliability()
            with cache_override(enabled=True, directory=tmp_path) as cache:
                self._expected_reliability()
                assert cache.stats()["disk_hits"] == 1  # served at its revision
        stale = _entry_files(tmp_path)
        assert len(stale) == 2  # one solver entry, one reward entry

        with cache_override(enabled=True, directory=tmp_path) as cache:
            value = self._expected_reliability()
            assert cache.stats()["disk_hits"] == 0
            assert cache.stats()["misses"] == 2
        assert value == stored
        assert set(stale) < set(_entry_files(tmp_path))

    def test_entry_stored_before_the_capacity_fix_is_a_miss(
        self, tmp_path, monkeypatch
    ):
        # revision 3 explored a test arc on a full capacitated place as
        # disabled; its stored state space must not be served
        builder = NetBuilder("peek")
        builder.place("B", tokens=1, capacity=1)
        builder.place("C", capacity=1)
        builder.exponential(
            "peek", rate=1.0, inputs={"B": 1}, outputs={"B": 1, "C": 1}
        )
        builder.exponential("drain", rate=1.0, inputs={"C": 1})
        net = builder.build()
        with monkeypatch.context() as patch:
            patch.setattr(hashing, "SOLVER_REVISION", 3)
            with cache_override(enabled=True, directory=tmp_path):
                solve_steady_state(net)
        with cache_override(enabled=True, directory=tmp_path) as cache:
            result = solve_steady_state(net)
            assert cache.stats()["disk_hits"] == 0
        assert sorted(marking["C"] for marking in result.markings) == [0, 1]


class TestProcessWidePolicy:
    def test_disabled_cache_is_none(self):
        with cache_override(enabled=False):
            assert active_cache() is None

    def test_override_restores_previous_policy(self, tmp_path):
        before = cache_settings()
        with cache_override(enabled=True, directory=tmp_path, maxsize=7):
            inside = cache_settings()
            assert inside["directory"] == str(tmp_path)
            assert inside["maxsize"] == 7
        assert cache_settings() == before

    def test_configure_resets_instance(self):
        with cache_override(enabled=True, directory=None):
            first = active_cache()
            configure_cache(maxsize=99)
            second = active_cache()
            assert second is not first
            assert second.maxsize == 99

    def test_solve_use_cache_false_bypasses(self, tmp_path):
        net = build_no_rejuvenation_net(
            PerceptionParameters.four_version_defaults()
        )
        with cache_override(enabled=True, directory=tmp_path) as cache:
            solve_steady_state(net, use_cache=False)
            assert cache.stats()["misses"] == 0
            assert _entry_files(tmp_path) == []

    def test_cached_pi_is_frozen(self):
        net = build_no_rejuvenation_net(
            PerceptionParameters.four_version_defaults()
        )
        with cache_override(enabled=True, directory=None):
            result = solve_steady_state(net)
            with pytest.raises((ValueError, RuntimeError)):
                result.pi[0] = 0.123
