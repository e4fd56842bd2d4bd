"""What the pooled workers measure reaches ``/metrics`` and ``/events``.

Executed solves run through :func:`repro.engine.sweep.run_captured`; the
service merges each capture's metrics into its registry and appends its
``cache.*`` events to the server log.  These tests pin that seam for
both executors: the worker families add up to what the same specs
produce inline, and every executed solve's cache events sit between its
``serve.solve.start`` and ``serve.solve.done``.
"""

from __future__ import annotations

import asyncio
import re

import pytest

from repro.analysis.sweeps import SWEEPABLE
from repro.engine.cache import cache_override
from repro.engine.sweep import capture_policy, run_captured
from repro.obs import registry_override
from repro.obs.clock import ManualClock, use_clock
from repro.serve.app import SWEEPABLE_KEYS
from repro.serve.client import request
from repro.serve.worker import PARAMETER_KEYS, solve_worker
from tests.serve.conftest import running_service
from tests.serve.test_app import fast_config

#: Distinct cold specs; the third differs from the second only in a
#: rate, so it exercises the structure tier's hit path too.
SPECS = [
    {"preset": "four"},
    {"preset": "six"},
    {"preset": "six", "mttc": 900.0},
]

_WORKER_FAMILIES = ("engine.", "statespace.", "markov.")


def _exposed_counters(text: str) -> dict[str, float]:
    return {
        match.group(1): float(match.group(2))
        for match in re.finditer(
            r"^(repro_\w+)_total ([0-9.eE+-]+)$", text, re.MULTILINE
        )
    }


async def _solve_each(host: str, port: int) -> None:
    for spec in SPECS:  # one at a time: one deterministic cache sequence
        response = await request(host, port, "POST", "/v1/solve", payload=spec)
        assert response.status == 200
        assert response.json()["cache"] == "miss"


class TestSweepableKeys:
    def test_each_serve_key_maps_one_to_one_onto_sweepable(self):
        attributes = [PARAMETER_KEYS[key] for key in SWEEPABLE_KEYS]
        assert len(set(attributes)) == len(attributes)
        assert set(attributes) == SWEEPABLE


class TestWorkerMetrics:
    @pytest.mark.parametrize("executor", ["process", "thread"])
    def test_worker_counters_equal_the_inline_sum(self, executor):
        async def scrape() -> str:
            async with running_service(
                fast_config(executor=executor, workers=1, watch=False)
            ) as (_, host, port):
                await _solve_each(host, port)
                response = await request(host, port, "GET", "/metrics")
                assert response.status == 200
                return response.body.decode()

        with cache_override(enabled=True, directory=None):
            exposed = _exposed_counters(asyncio.run(scrape()))
        with cache_override(enabled=True, directory=None):
            with registry_override() as inline:
                for spec in SPECS:
                    solve_worker(spec)

        expected = {
            "repro_" + name.replace(".", "_"): counter.value
            for name, counter in inline.counters.items()
            if name.startswith(_WORKER_FAMILIES)
        }
        assert "repro_engine_cache_misses" in expected
        assert "repro_statespace_states_explored" in expected
        assert any(name.startswith("repro_markov_") for name in expected)
        for name, value in expected.items():
            assert exposed.get(name) == value, name
        # and nothing from the worker families beyond what ran inline
        prefixes = tuple(f"repro_{f[:-1]}_" for f in _WORKER_FAMILIES)
        assert {n for n in exposed if n.startswith(prefixes)} == set(expected)


class TestWorkerEvents:
    def test_cache_events_sit_inside_each_executed_solve(self):
        async def snapshot() -> list[dict]:
            async with running_service(
                fast_config(workers=1, watch=False)
            ) as (service, host, port):
                await _solve_each(host, port)
                # a repeat is a service-level hit: no worker, no cache.*
                again = await request(
                    host, port, "POST", "/v1/solve", payload=SPECS[0]
                )
                assert again.json()["cache"] == "hit"
                return service.ring.snapshot()

        with cache_override(enabled=True, directory=None):
            with use_clock(ManualClock()):
                events = asyncio.run(snapshot())

        stamps = [event["ts"] for event in events]
        assert stamps == sorted(stamps)

        kinds = [event["event"] for event in events]
        starts = [i for i, k in enumerate(kinds) if k == "serve.solve.start"]
        dones = [i for i, k in enumerate(kinds) if k == "serve.solve.done"]
        assert len(starts) == len(dones) == len(SPECS)
        inside = set()
        for start, done in zip(starts, dones):
            assert start < done
            window = [
                i for i in range(start + 1, done)
                if kinds[i].startswith("cache.")
            ]
            assert window, f"no cache.* event in solve {kinds[start:done + 1]}"
            inside.update(window)
        # every worker cache event belongs to an executed solve
        assert inside == {
            i for i, kind in enumerate(kinds) if kind.startswith("cache.")
        }

    def test_cache_events_name_the_lookup_that_missed(self):
        # one cold spec, then a rate-only variant of it: the reward and
        # solution tiers miss both times, the structure tier only once
        policy = {**capture_policy(), "trace": False, "events": True}

        def lookups(spec: dict) -> list[tuple]:
            captured = run_captured(
                solve_worker, (spec,), policy, "serve.compute", kind="solve"
            )
            return [
                (event["event"], event["lookup"], event.get("tier"))
                for event in captured.events
            ]

        with cache_override(enabled=True, directory=None):
            cold = lookups(SPECS[1])
            variant = lookups(SPECS[2])
            repeat = lookups(SPECS[1])
        assert cold == [
            ("cache.miss", "reward", None),
            ("cache.miss", "solution", None),
            ("cache.miss", "structure", None),
        ]
        assert variant == [
            ("cache.miss", "reward", None),
            ("cache.miss", "solution", None),
            ("cache.hit", "structure", "memory"),
        ]
        assert repeat == [("cache.hit", "reward", "memory")]
