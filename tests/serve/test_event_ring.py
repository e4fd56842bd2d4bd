"""Bounded event-log edge cases: overflow cursors, empty snapshots, wakeups.

The server's ``GET /events`` log is an :class:`EventStream` with a
``limit``.  Its contract is that cursors are *absolute* sequence
numbers: eviction of old entries must never renumber what a follower
sees, an empty log must answer snapshots without blocking, and closing
the log must wake anyone parked in ``wait()`` — the paths a
normally-busy server never exercises.
"""

from __future__ import annotations

import asyncio
import json
import tracemalloc

import pytest

from repro.obs.events import EventStream
from repro.serve.app import EVENT_LOG_LIMIT, ServeConfig
from repro.serve.http import Request
from tests.serve.conftest import running_service


def _event(index: int) -> dict:
    return {"event": "serve.test", "index": index}


class TestCursorPastOverflow:
    def test_since_skips_evicted_entries_without_renumbering(self):
        ring = EventStream(limit=4)
        for index in range(10):  # entries 1..10; only 7..10 retained
            ring.append(_event(index))
        fresh = ring.since(0)
        assert [seq for seq, _ in fresh] == [7, 8, 9, 10]
        assert [event["index"] for _, event in fresh] == [6, 7, 8, 9]

    def test_cursor_inside_the_evicted_range_yields_whats_left(self):
        ring = EventStream(limit=4)
        for index in range(10):
            ring.append(_event(index))
        # cursor 5 points at an evicted entry: the follower lost 6 and 7
        # but resumes at the oldest retained seq, with no duplicates
        assert [seq for seq, _ in ring.since(5)] == [7, 8, 9, 10]

    def test_cursor_beyond_the_head_returns_nothing(self):
        ring = EventStream(limit=4)
        for index in range(10):
            ring.append(_event(index))
        assert ring.since(10) == []
        assert ring.since(9999) == []

    def test_sequence_numbers_survive_overflow_monotonically(self):
        ring = EventStream(limit=2)
        for index in range(100):
            ring.append(_event(index))
        (a, _), (b, _) = ring.since(0)
        assert (a, b) == (99, 100)


class TestEmptyRingSnapshot:
    def test_empty_snapshot_is_empty_list(self):
        assert EventStream(limit=4096).snapshot() == []

    def test_follow_0_on_a_fresh_server_returns_empty_body(self):
        """``GET /events?follow=0`` on a ring holding nothing must
        answer immediately with zero JSONL lines, not block."""

        async def go():
            config = ServeConfig(executor="thread", workers=1, watch=False)
            async with running_service(config) as (service, host, port):
                service.ring = EventStream(limit=4096)  # discard boot events
                request = Request(
                    method="GET",
                    path="/events",
                    query={"follow": "0"},
                    headers={},
                    body=b"",
                )
                response = await service._dispatch(request)
                assert response.status == 200
                assert response.body == b""

        asyncio.run(go())

    def test_nonempty_follow_0_snapshot_is_parseable_jsonl(self):
        async def go():
            config = ServeConfig(executor="thread", workers=1, watch=False)
            async with running_service(config) as (service, host, port):
                request = Request(
                    method="GET",
                    path="/events",
                    query={"follow": "0"},
                    headers={},
                    body=b"",
                )
                response = await service._dispatch(request)
                lines = response.body.decode().splitlines()
                assert lines, "boot should have ringed serve.start"
                events = [json.loads(line) for line in lines]
                assert events[0]["event"] == "serve.start"

        asyncio.run(go())


class TestWaiterWakeupOnClose:
    def test_close_wakes_a_parked_waiter_before_its_timeout(self):
        async def go():
            ring = EventStream(limit=4096)

            async def park():
                return await ring.wait(0, timeout=30.0)

            waiter = asyncio.create_task(park())
            await asyncio.sleep(0)  # let the waiter reach the condition
            assert ring._wakeup is not None  # someone is parked
            ring.close()
            fresh = await asyncio.wait_for(waiter, timeout=5.0)
            assert fresh == []
            assert ring.closed

        asyncio.run(go())

    def test_wait_on_a_closed_ring_returns_immediately(self):
        async def go():
            ring = EventStream(limit=4096)
            ring.close()
            assert await asyncio.wait_for(ring.wait(0), timeout=1.0) == []

        asyncio.run(go())

    def test_append_wakes_a_parked_waiter_with_the_new_entry(self):
        async def go():
            ring = EventStream(limit=4096)

            async def park():
                return await ring.wait(0, timeout=30.0)

            waiter = asyncio.create_task(park())
            await asyncio.sleep(0)
            ring.append(_event(0))
            fresh = await asyncio.wait_for(waiter, timeout=5.0)
            assert [seq for seq, _ in fresh] == [1]

        asyncio.run(go())

    def test_notify_without_waiters_is_a_no_op_outside_a_loop(self):
        ring = EventStream(limit=4096)
        ring.append(_event(0))  # no running loop, no waiters: no crash
        ring.close()
        assert ring.closed and len(ring.since(0)) == 1


class TestEventsFileBound:
    def test_events_file_gets_every_line_while_memory_keeps_the_bound(
        self, tmp_path
    ):
        """With ``events=<file>`` the server keeps at most the log bound
        in memory while the file still receives every event emitted."""
        path = tmp_path / "serve-events.jsonl"
        emitted = 2 * EVENT_LOG_LIMIT
        padding = 512
        # a generous per-event allowance: payload, dict, ts and index
        per_event = padding + 600

        async def go():
            config = ServeConfig(
                executor="thread", workers=1, watch=False, events=str(path)
            )
            async with running_service(config) as (service, host, port):
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    for index in range(emitted):
                        service._emit(
                            "serve.test",
                            index=index,
                            payload=f"{index:0>{padding}}",
                        )
                    held = tracemalloc.get_traced_memory()[0] - before
                finally:
                    tracemalloc.stop()
                # room for the bound's events, not for all of them
                assert held < EVENT_LOG_LIMIT * per_event, held
                assert len(service.ring.snapshot()) == EVENT_LOG_LIMIT
                assert service.ring.seq == emitted + 1  # + serve.start
                return service.ring.snapshot()

        retained = asyncio.run(go())
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["event"] == "serve.start"
        assert [event["index"] for event in lines[1:]] == list(range(emitted))
        assert lines[-EVENT_LOG_LIMIT:] == retained


def test_limit_must_be_positive():
    with pytest.raises(ValueError, match="limit"):
        EventStream(limit=0)
