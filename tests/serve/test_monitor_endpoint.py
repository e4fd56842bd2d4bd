"""``GET /monitor``: the health-estimator's posterior over HTTP."""

from __future__ import annotations

import asyncio

from repro.monitor.controller import MonitorController
from repro.nversion.voting import VotingScheme
from repro.obs import registry_override
from repro.perception.parameters import PerceptionParameters
from repro.serve.client import request
from repro.serve.monitorview import monitor_snapshot
from repro.simulation.voter import Voter
from tests.serve.conftest import running_service
from tests.serve.test_app import fast_config


def feed_round(controller, now, outputs, truth=0):
    voter = Voter(VotingScheme.bft_with_rejuvenation(1, 1))
    tally = voter.tally(outputs, truth)
    return controller.observe_round(now, outputs, tally, voter.classify(tally))


def deviating_controller(rounds=60):
    """A controller (and its registry) that has flagged its last module."""
    parameters = PerceptionParameters.six_version_defaults()
    controller = MonitorController(parameters)
    controller.begin_run()
    n = parameters.n_modules
    with registry_override() as registry:
        for i in range(rounds):
            feed_round(controller, float(i + 1), [0] * (n - 1) + [7])
    return controller, registry, n


class TestMonitorEndpoint:
    def test_unattached_service_reports_detached_zeros(self):
        async def go():
            # a fresh registry: earlier tests may have fed monitor
            # counters into the process-default one
            with registry_override():
                async with running_service(fast_config()) as (_, host, port):
                    response = await request(host, port, "GET", "/monitor")
                    assert response.status == 200
                    body = response.json()
                    assert body["attached"] is False
                    assert body["counters"] == {}
                    assert body["disagreement"] is None
                    assert "modules" not in body

        asyncio.run(go())

    def test_attached_controller_exposes_posterior_and_flags(self):
        controller, registry, n = deviating_controller()

        async def go():
            async with running_service(fast_config()) as (
                service, host, port,
            ):
                service.attach_monitor(controller, registry=registry)
                response = await request(host, port, "GET", "/monitor")
                assert response.status == 200
                body = response.json()
                assert body["attached"] is True
                assert body["counters"]["monitor.rounds"] == 60.0
                assert body["counters"]["monitor.flags"] >= 1.0
                assert body["disagreement"]["count"] == 60
                assert {"p50", "p95", "p99"} <= set(body["disagreement"])

                modules = body["modules"]
                assert len(modules) == n
                deviant = modules[n - 1]
                assert deviant["flagged"] is True
                assert (
                    deviant["posterior"] >= body["detection_threshold"]
                )
                assert all(
                    m["posterior"] < body["detection_threshold"]
                    for m in modules[: n - 1]
                )
                assert body["flagged"] == [n - 1]

                assert body["policy"]["name"] == "periodic"
                summary = body["summary"]
                assert summary["rounds"] == 60
                assert 0.0 <= summary["false_trigger_rate"] <= 1.0

        asyncio.run(go())

    def test_monitor_endpoint_is_get_only(self):
        async def go():
            async with running_service(fast_config()) as (_, host, port):
                response = await request(
                    host, port, "POST", "/monitor", payload={}
                )
                assert response.status == 405

        asyncio.run(go())


class TestMonitorSnapshotView:
    def test_snapshot_is_json_serializable_and_sorted(self):
        import json

        controller, registry, _ = deviating_controller(rounds=20)
        snapshot = monitor_snapshot(registry, controller)
        dumped = json.dumps(snapshot, sort_keys=True)
        assert json.loads(dumped) == snapshot
        counters = list(snapshot["counters"])
        assert counters == sorted(counters)
        assert all(key.startswith("monitor.") for key in counters)

    def test_snapshot_without_controller_has_no_module_view(self):
        with registry_override() as registry:
            pass
        snapshot = monitor_snapshot(registry, None)
        assert snapshot == {
            "attached": False,
            "counters": {},
            "disagreement": None,
        }
