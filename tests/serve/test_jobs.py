"""Job lifecycle, event streaming, and the bounded job store."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.jobs import DONE, FAILED, PENDING, RUNNING, Job, JobStore


def make_job(job_id="job-000001", kind="sweep"):
    async def build():
        return Job(id=job_id, kind=kind)

    return asyncio.run(build())


class TestJob:
    def test_lifecycle_states(self):
        async def go():
            job = Job(id="job-000001", kind="sweep")
            assert job.status == PENDING and not job.finished
            job.start()
            assert job.status == RUNNING and not job.finished
            job.finish({"answer": 42})
            assert job.status == DONE and job.finished
            assert job.result == {"answer": 42}

        asyncio.run(go())

    def test_failure_records_error(self):
        async def go():
            job = Job(id="job-000001", kind="sweep")
            job.start()
            job.fail("it broke")
            assert job.status == FAILED and job.finished
            assert job.error == "it broke"
            assert job.describe()["error"] == "it broke"

        asyncio.run(go())

    def test_events_are_stamped_and_ordered(self):
        async def go():
            job = Job(id="job-000001", kind="sweep")
            job.start()
            job.emit("sweep.point.done", index=0)
            job.finish(None)
            kinds = [event["event"] for event in job.events]
            assert kinds == ["job.start", "sweep.point.done", "job.done"]
            assert all(event["job"] == "job-000001" for event in job.events)
            assert all("ts" in event for event in job.events)

        asyncio.run(go())

    def test_describe_shows_result_only_when_done(self):
        async def go():
            job = Job(id="job-000001", kind="sweep")
            assert "result" not in job.describe()
            job.start()
            job.finish({"x": 1})
            assert job.describe()["result"] == {"x": 1}

        asyncio.run(go())

    def test_wait_events_returns_immediately_past_cursor(self):
        async def go():
            job = Job(id="job-000001", kind="sweep")
            job.emit("one")
            entries = await job.log.wait(0)
            assert [event["event"] for _, event in entries] == ["one"]

        asyncio.run(go())

    def test_wait_events_blocks_until_emit(self):
        async def go():
            job = Job(id="job-000001", kind="sweep")

            async def emitter():
                await asyncio.sleep(0.01)
                job.emit("late")

            task = asyncio.create_task(emitter())
            entries = await job.log.wait(0, timeout=5.0)
            await task
            assert [event["event"] for _, event in entries] == ["late"]

        asyncio.run(go())

    def test_wait_events_empty_when_finished(self):
        async def go():
            job = Job(id="job-000001", kind="sweep")
            job.start()
            job.finish(None)
            assert job.log.closed
            entries = await job.log.wait(job.log.seq)
            assert entries == []

        asyncio.run(go())

    def test_emit_without_a_tailer_schedules_no_task(self):
        async def go():
            job = Job(id="job-000001", kind="sweep")
            before = asyncio.all_tasks()
            job.start()
            for index in range(100):
                job.emit("sweep.point.done", index=index)
            job.finish(None)
            assert asyncio.all_tasks() == before

        asyncio.run(go())


class TestJobStore:
    def test_sequential_ids(self):
        async def go():
            store = JobStore()
            first = store.create("sweep", {})
            second = store.create("sweep", {})
            assert (first.id, second.id) == ("job-000001", "job-000002")
            assert store.get("job-000002") is second
            assert store.get("job-999999") is None

        asyncio.run(go())

    def test_live_bound_refuses_admission(self):
        async def go():
            store = JobStore(max_live=2)
            a = store.create("sweep", {})
            store.create("sweep", {})
            assert store.create("sweep", {}) is None
            a.start()
            a.finish(None)  # frees a live slot
            assert store.create("sweep", {}) is not None

        asyncio.run(go())

    def test_finished_jobs_evict_oldest_first(self):
        async def go():
            store = JobStore(max_live=10, keep_finished=2)
            jobs = [store.create("sweep", {}) for _ in range(3)]
            for job in jobs:
                job.start()
                job.finish(None)
            store.create("sweep", {})  # triggers eviction
            assert store.get(jobs[0].id) is None
            assert store.get(jobs[1].id) is not None
            assert store.get(jobs[2].id) is not None

        asyncio.run(go())

    def test_describe_counts_by_status(self):
        async def go():
            store = JobStore()
            store.create("sweep", {})
            running = store.create("sweep", {})
            running.start()
            summary = store.describe()
            assert summary["total"] == 2
            assert summary["pending"] == 1
            assert summary["running"] == 1

        asyncio.run(go())

    def test_rejects_bad_max_live(self):
        with pytest.raises(ValueError, match="max_live"):
            JobStore(max_live=0)
