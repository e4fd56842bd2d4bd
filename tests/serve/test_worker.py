"""Spec resolution, fingerprints, and the picklable workers."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.serve.worker import (
    SpecError,
    fingerprint_spec,
    resolve_spec,
    result_digest,
    solve_worker,
    verify_worker,
)


class TestResolveSpec:
    def test_presets_match_paper_defaults(self):
        four, _, _ = resolve_spec({"preset": "four"})
        six, _, _ = resolve_spec({"preset": "six"})
        assert (four.n_modules, four.rejuvenation) == (4, False)
        assert (six.n_modules, six.rejuvenation) == (6, True)

    def test_explicit_shape_and_overrides(self):
        parameters, max_states, method = resolve_spec(
            {
                "versions": 9,
                "f": 2,
                "r": 1,
                "rejuvenation": True,
                "mttc": 1234.5,
                "max_states": 50_000,
                "method": "mrgp",
            }
        )
        assert parameters.n_modules == 9
        assert parameters.mttc == 1234.5
        assert (max_states, method) == (50_000, "mrgp")

    def test_rejects_unknown_key(self):
        with pytest.raises(SpecError, match="unknown spec key 'mtcc'"):
            resolve_spec({"preset": "four", "mtcc": 1.0})

    def test_rejects_preset_plus_versions(self):
        with pytest.raises(SpecError, match="not both"):
            resolve_spec({"preset": "four", "versions": 4})

    def test_rejects_missing_shape(self):
        with pytest.raises(SpecError, match="preset"):
            resolve_spec({"mttc": 100.0})

    def test_rejects_unknown_preset(self):
        with pytest.raises(SpecError, match="unknown preset"):
            resolve_spec({"preset": "five"})

    def test_rejects_bad_method_and_max_states(self):
        with pytest.raises(SpecError, match="method"):
            resolve_spec({"preset": "four", "method": "magic"})
        with pytest.raises(SpecError, match="max_states"):
            resolve_spec({"preset": "four", "max_states": 0})

    def test_rejects_non_object_spec(self):
        with pytest.raises(SpecError, match="JSON object"):
            resolve_spec(["preset", "four"])

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"preset": "four", "f": 2}, "fixes 'f'"),
            ({"preset": "six", "r": 2}, "fixes 'r'"),
            ({"preset": "four", "rejuvenation": True}, "fixes 'rejuvenation'"),
            ({"versions": 6, "rejuvenation": "false"}, "true or false"),
            ({"versions": 7, "f": 1.7}, "'f' must be an integer"),
            ({"versions": 7.9}, "'versions' must be an integer"),
            ({"preset": "four", "max_states": 2.5}, "'max_states' must be"),
            ({"versions": 5, "r": 2}, "'r' applies only with rejuvenation"),
            ({"versions": 5, "interval": 300.0}, "'interval' applies only"),
            ({"preset": "four", "rejuvenation_time": 2.0}, "'rejuvenation_time'"),
            ({"preset": "four", "mttc": "1523"}, "'mttc' must be a finite number"),
            ({"preset": "four", "p": True}, "'p' must be a finite number"),
            ({"preset": None}, "unknown preset"),
        ],
    )
    def test_rejects_inputs_it_would_ignore_or_coerce(self, spec, message):
        with pytest.raises(SpecError, match=message):
            resolve_spec(spec)

    def test_invalid_parameter_combination_is_spec_error(self):
        # n=4 violates the BFT floor for f=2, r=1 with rejuvenation.
        with pytest.raises(SpecError, match="invalid spec value"):
            resolve_spec(
                {"versions": 4, "f": 2, "r": 1, "rejuvenation": True}
            )


class TestFingerprints:
    def test_equivalent_specs_share_a_fingerprint(self):
        preset_fp, preset_key = fingerprint_spec({"preset": "four"})
        explicit_fp, explicit_key = fingerprint_spec({"versions": 4, "f": 1})
        assert preset_fp == explicit_fp
        assert preset_key == explicit_key

    def test_parameter_change_changes_fingerprint(self):
        base, _ = fingerprint_spec({"preset": "four"})
        tweaked, _ = fingerprint_spec({"preset": "four", "mttc": 99.0})
        assert base != tweaked

    def test_solver_settings_change_key_not_fingerprint(self):
        fp_a, key_a = fingerprint_spec({"preset": "four"})
        fp_b, key_b = fingerprint_spec(
            {"preset": "four", "max_states": 12_345}
        )
        assert fp_a == fp_b
        assert key_a != key_b

    def test_reward_parameters_change_key_not_fingerprint(self):
        # p/p_prime/alpha enter Eq. 1 through the reward, not the net:
        # the fingerprint (model identity) is shared but the cache key
        # must differ, or a cached E[R] for one p answers requests for
        # another.
        base_fp, base_key = fingerprint_spec({"preset": "six"})
        for tweak in ({"p": 0.14}, {"p_prime": 0.9}, {"alpha": 0.1}):
            fp, key = fingerprint_spec({"preset": "six", **tweak})
            assert fp == base_fp, tweak
            assert key != base_key, tweak

    def test_equivalent_reward_parameters_share_a_key(self):
        _, implicit = fingerprint_spec({"preset": "six"})
        _, explicit = fingerprint_spec(
            {"preset": "six", "p": 0.08, "p_prime": 0.5, "alpha": 0.5}
        )
        assert implicit == explicit


class TestResultDigest:
    def test_digest_is_canonical_json_sha256(self):
        result = {"b": 2, "a": 1}
        expected = hashlib.sha256(
            json.dumps(result, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert result_digest(result) == expected

    def test_digest_is_key_order_independent(self):
        assert result_digest({"a": 1, "b": 2}) == result_digest(
            {"b": 2, "a": 1}
        )


class TestWorkers:
    def test_solve_worker_matches_engine_value(self):
        from repro.engine.tasks import expected_reliability
        from repro.perception.parameters import PerceptionParameters

        result = solve_worker({"preset": "four"})
        direct = expected_reliability(
            PerceptionParameters.four_version_defaults()
        )
        assert result["expected_reliability"] == pytest.approx(direct)
        assert result["n_modules"] == 4
        assert not result["rejuvenation"]
        assert len(result["fingerprint"]) == 64

    def test_cold_request_builds_and_fingerprints_once_per_call(
        self, monkeypatch
    ):
        import repro.engine.hashing as hashing
        import repro.perception.evaluation as evaluation
        from repro.engine.cache import cache_override

        calls = {"build": 0, "fingerprint": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        probe_pass = counting("fingerprint", hashing.net_digests)
        for module in (hashing, evaluation):
            monkeypatch.setattr(module, "net_digests", probe_pass)
        for builder in ("build_rejuvenation_net", "build_no_rejuvenation_net"):
            monkeypatch.setattr(
                evaluation, builder, counting("build", getattr(evaluation, builder))
            )
        spec = {"versions": 8, "rejuvenation": True, "r": 1, "mttc": 1400.0}
        with cache_override(enabled=True):
            fingerprint_spec(spec)
            solve_worker(spec)
        # one build + one probe pass per request; the solver's cache and
        # structure keys reuse the request's digests
        assert calls["build"] <= 2
        assert calls["fingerprint"] <= 2

    def test_verify_worker_reports_lint_and_certificate(self):
        result = verify_worker({"preset": "four"})
        assert result["lint"]["ok"]
        assert result["certificate"]["passed"]
        assert result["certificate"]["n_states"] > 0
        assert result["certificate"]["max_residual"] <= (
            result["certificate"]["tolerance"]
        )
