"""``POST /v1/solve`` honours the spec's solver ``method``.

The method is validated, keyed and — what these tests pin — actually
used: the worker's ``dspn.solve`` span records the route that answered,
exponential-only specs agree across every route at the differential
harness's tolerance, and a route that cannot solve the spec is a 422,
never a silently auto-routed 200.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.engine.cache import cache_override
from repro.perception.evaluation import evaluate
from repro.perception.parameters import PerceptionParameters
from repro.serve.client import request
from tests.serve.conftest import running_service
from tests.serve.test_app import fast_config

#: The sparse/MRGP differential harness's agreement bar.
AGREEMENT = 1e-9

NO_REJUVENATION = {"versions": 5, "f": 1, "mttc": 900.0}
REJUVENATION = {"preset": "six", "mttc": 900.0}


async def _traced_solve(host, port, spec):
    """``(response, dspn.solve span args or None)`` of one traced solve."""
    response = await request(host, port, "POST", "/v1/solve?trace=1", payload=spec)
    if response.status != 200:
        return response, None
    trace = await request(host, port, "GET", response.json()["trace"])
    solves = [
        event["args"]
        for event in trace.json()["traceEvents"]
        if event["ph"] == "X" and event["name"] == "dspn.solve"
    ]
    assert len(solves) == 1
    return response, solves[0]


def _solve_all(specs):
    async def go():
        async with running_service(fast_config()) as (_, host, port):
            return [await _traced_solve(host, port, spec) for spec in specs]

    with cache_override(enabled=False):
        return asyncio.run(go())


class TestMethodIsHonoured:
    def test_exponential_spec_agrees_across_routes(self):
        methods = ("auto", "mrgp", "sparse")
        answers = _solve_all([{**NO_REJUVENATION, "method": m} for m in methods])
        values = {}
        for method, (response, solve) in zip(methods, answers):
            assert response.status == 200, response.json()
            assert solve["requested"] == method
            expected_route = "sparse" if method == "auto" else method
            assert solve["method"] == expected_route
            values[method] = response.json()["result"]["expected_reliability"]
        for method in ("mrgp", "sparse"):
            assert values[method] == pytest.approx(values["auto"], abs=AGREEMENT)

    def test_each_route_has_its_own_result_cache_entry(self):
        answers = _solve_all(
            [{**NO_REJUVENATION, "method": m} for m in ("sparse", "mrgp")]
        )
        first, second = (response.json() for response, _ in answers)
        assert first["cache"] == "miss"
        assert second["cache"] == "miss"
        assert first["result"]["cache_key"] != second["result"]["cache_key"]

    def test_ctmc_class_route_refuses_deterministic_spec(self):
        [(response, _)] = _solve_all([{**REJUVENATION, "method": "sparse"}])
        assert response.status == 422
        assert "UnsupportedModelError" in response.json()["error"]

    def test_removed_dense_method_is_a_bad_request(self):
        [(response, _)] = _solve_all([{**NO_REJUVENATION, "method": "ctmc"}])
        assert response.status == 400
        assert "valid methods: auto, mrgp, sparse" in response.json()["error"]

    def test_mrgp_route_matches_in_process_evaluation(self):
        [(response, solve)] = _solve_all([{**REJUVENATION, "method": "mrgp"}])
        assert response.status == 200
        assert solve["method"] == "mrgp"
        parameters = PerceptionParameters.six_version_defaults(mttc=900.0)
        with cache_override(enabled=False):
            expected = evaluate(parameters, method="mrgp").expected_reliability
        served = response.json()["result"]["expected_reliability"]
        assert served == pytest.approx(expected, abs=1e-12)
