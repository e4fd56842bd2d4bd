"""Tests of run-provenance manifests."""

from __future__ import annotations

import json
import sys

from repro.engine import cache_override
from repro.obs import ManualClock, RunManifest, collect_manifest, use_clock


class TestCollectManifest:
    def test_records_environment_and_workload(self):
        manifest = collect_manifest(
            experiment="table2-defaults",
            parameters={"p": 0.1},
            seed=2023,
            jobs=4,
        )
        assert manifest.experiment == "table2-defaults"
        assert manifest.parameters == {"p": 0.1}
        assert manifest.seed == 2023
        assert manifest.jobs == 4
        assert manifest.python_version == sys.version.split()[0]
        assert manifest.numpy_version
        assert manifest.platform
        assert manifest.git_sha is None or len(manifest.git_sha) == 40

    def test_reflects_cache_policy(self, tmp_path):
        with cache_override(enabled=True, directory=tmp_path, maxsize=7):
            manifest = collect_manifest()
        assert manifest.cache_policy["directory"] == str(tmp_path)
        assert manifest.cache_policy["maxsize"] == 7

    def test_reflects_clock_kind(self):
        assert collect_manifest().clock == "monotonic"
        with use_clock(ManualClock()):
            assert collect_manifest().clock == "manual"

    def test_is_reproducible_within_a_configuration(self):
        """No timestamps: two collections in one state are identical."""
        first = collect_manifest(experiment="fig3")
        second = collect_manifest(experiment="fig3")
        assert first == second
        assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
            second.as_dict(), sort_keys=True
        )

    def test_as_dict_is_json_serializable_and_complete(self):
        data = collect_manifest(experiment="fig3").as_dict()
        assert json.loads(json.dumps(data)) == data
        assert set(data) == {
            "experiment",
            "parameters",
            "seed",
            "jobs",
            "git_sha",
            "python_version",
            "numpy_version",
            "platform",
            "cache_policy",
            "clock",
            "detectors",
        }
        assert data["detectors"] == []

    def test_detector_certificates_travel_in_the_manifest(self):
        from repro.obs.watch import WatchConfig, Watcher

        certificates = Watcher(WatchConfig(target=0.99)).certificates()
        data = collect_manifest(detectors=certificates).as_dict()
        assert json.loads(json.dumps(data)) == data
        kinds = [certificate["kind"] for certificate in data["detectors"]]
        assert "reliability-drift" in kinds and "slo-burn-rate" in kinds
        drift = data["detectors"][kinds.index("reliability-drift")]
        assert drift["alpha"] == 1e-3 and drift["target"] == 0.99


class TestRunManifest:
    def test_defaults_are_empty_not_shared(self):
        a = RunManifest(experiment=None)
        b = RunManifest(experiment=None)
        assert a.parameters == {} and a.cache_policy == {}
        assert a.parameters is not b.parameters
