"""SimulationService end-to-end: the PR's acceptance criteria.

* load: >= 100 concurrent jobs (duplicates + distinct) complete with
  results field-for-field identical to direct MatrixEngine runs, and
  duplicates coalesce (computed-once count < submitted count, asserted
  via the metrics endpoint),
* backpressure: submissions beyond the queue bound get a structured
  ``queue_full`` rejection, nothing is dropped,
* graceful drain: in-flight jobs finish, new submissions are rejected.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.experiments import MatrixEngine, Workload
from repro.experiments.cache import _CELL_FIELDS
from repro.service import (
    CellJob,
    HeadlineJob,
    ServiceError,
    SimulationService,
)

KiB = 1024
TINY = Workload(panels=2, panel_bytes=64 * KiB)

# ten distinct matrix cells; the load test submits each ten times
DISTINCT_CELLS = [
    ("CNL-UFS", "SLC"),
    ("CNL-UFS", "TLC"),
    ("CNL-EXT2", "SLC"),
    ("CNL-EXT3", "MLC"),
    ("CNL-EXT4", "TLC"),
    ("CNL-XFS", "PCM"),
    ("CNL-JFS", "SLC"),
    ("CNL-BTRFS", "MLC"),
    ("ION-GPFS", "SLC"),
    ("ION-GPFS", "PCM"),
]


def run(coro):
    return asyncio.run(coro)


class TestLoad:
    def test_100_concurrent_jobs_coalesce_and_match_engine(self):
        """The headline acceptance test."""

        async def scenario():
            service = SimulationService(queue_limit=32, max_concurrency=4)
            await service.start()
            # 10 distinct cells x 10 copies = 100 concurrent submissions;
            # submit() is synchronous, so the whole burst is admitted
            # before any dispatcher runs — every duplicate must coalesce
            cells = DISTINCT_CELLS * 10
            handles = [
                service.submit(CellJob(label=label, kind=kind, workload=TINY))
                for label, kind in cells
            ]
            results = await asyncio.gather(*(h.result() for h in handles))
            status = service.status()
            await service.shutdown()
            return cells, handles, results, status

        cells, handles, results, status = run(scenario())

        assert len(results) == 100
        assert status["submitted"] == 100
        # duplicates computed once: 10 engine passes for 100 submissions
        assert status["executed"] == len(DISTINCT_CELLS)
        assert status["executed"] < status["submitted"]
        assert status["coalesced"] == 100 - len(DISTINCT_CELLS)
        assert status["completed"] == len(DISTINCT_CELLS)
        assert status["rejected_total"] == 0
        assert sum(1 for h in handles if h.coalesced) == status["coalesced"]

        # field-for-field identical to a direct MatrixEngine run
        direct = MatrixEngine(workers=1).run_cells(DISTINCT_CELLS, TINY)
        for (label, kind), payload in zip(cells, results):
            expected = direct[(label, kind)]
            got = payload["result"]
            for field in _CELL_FIELDS:
                assert got[field] == getattr(expected, field), (
                    label, kind, field,
                )

        # latency percentiles recorded for the completed jobs
        assert status["latency"]["count"] == len(DISTINCT_CELLS)
        assert status["latency"]["p50_s"] > 0

    def test_mixed_job_types_share_the_cache(self):
        async def scenario():
            service = SimulationService(queue_limit=16, max_concurrency=2)
            await service.start()
            cell = service.submit(
                CellJob(label="CNL-UFS", kind="SLC", workload=TINY,
                        with_remaining=False)
            )
            # the cell finishes before the headline job looks it up, so
            # the headline's hit on the shared cell is deterministic
            cell_payload = await cell.result()
            headline = service.submit(HeadlineJob(workload=TINY))
            headline_payload = await headline.result()
            status = service.status()
            await service.shutdown()
            return cell_payload, headline_payload, status

        cell_payload, headline_payload, status = run(scenario())
        assert cell_payload["kind"] == "cell"
        assert "Headline claims" in headline_payload["text"]
        # the headline pass reuses the cell's cached result: the shared
        # ResultCache saw real traffic
        assert status["cache"]["puts"] > 0
        assert status["cache"]["hits"] > 0


class TestBackpressure:
    def test_queue_full_is_structured_not_dropped(self):
        async def scenario():
            service = SimulationService(queue_limit=2, max_concurrency=1)
            await service.start()
            accepted = [
                service.submit(CellJob(label=label, kind=kind, workload=TINY))
                for label, kind in DISTINCT_CELLS[:2]
            ]
            # third distinct job exceeds the bound before any dispatch
            with pytest.raises(ServiceError) as exc:
                service.submit(
                    CellJob(label="CNL-XFS", kind="SLC", workload=TINY)
                )
            error = exc.value.to_dict()
            # an identical duplicate still coalesces — no queue slot needed
            dup = service.submit(
                CellJob(**{"label": DISTINCT_CELLS[0][0],
                           "kind": DISTINCT_CELLS[0][1], "workload": TINY})
            )
            results = await asyncio.gather(*(h.result() for h in accepted),
                                           dup.result())
            status = service.status()
            await service.shutdown()
            return error, results, status

        error, results, status = run(scenario())
        assert error["error"] == "queue_full"
        assert "retry" in error["detail"]
        # the rejected job did not evict anything: both accepted jobs and
        # the coalesced duplicate completed
        assert len(results) == 3
        assert results[0]["result"] == results[2]["result"]
        assert status["rejected"] == {"queue_full": 1}
        assert status["completed"] == 2
        assert status["coalesced"] == 1

    def test_rejection_counts_by_reason(self):
        async def scenario():
            service = SimulationService(queue_limit=1, max_concurrency=1)
            await service.start()
            service.submit(CellJob(label="CNL-UFS", kind="SLC", workload=TINY))
            for label, kind in DISTINCT_CELLS[1:4]:
                with pytest.raises(ServiceError):
                    service.submit(CellJob(label=label, kind=kind,
                                           workload=TINY))
            with pytest.raises(ServiceError):
                service.submit({"job": "cell", "label": "BAD", "kind": "SLC"})
            status = service.status()
            await service.shutdown()
            return status

        status = run(scenario())
        assert status["rejected"]["queue_full"] == 3
        assert status["rejected"]["invalid_job"] == 1
        assert status["submitted"] == 5


class TestLifecycle:
    def test_graceful_drain_finishes_inflight_rejects_new(self):
        async def scenario():
            service = SimulationService(queue_limit=8, max_concurrency=2)
            await service.start()
            handles = [
                service.submit(CellJob(label=label, kind=kind, workload=TINY))
                for label, kind in DISTINCT_CELLS[:4]
            ]
            drain = asyncio.create_task(service.drain())
            await asyncio.sleep(0)  # drain flips the queue closed
            with pytest.raises(ServiceError) as exc:
                service.submit(
                    CellJob(label="CNL-XFS", kind="SLC", workload=TINY)
                )
            await drain
            # every in-flight job completed despite the drain
            results = await asyncio.gather(*(h.result() for h in handles))
            status = service.status()
            await service.shutdown()
            return exc.value, results, status

        error, results, status = run(scenario())
        assert error.code == "draining"
        assert len(results) == 4 and all(r["result"] for r in results)
        assert status["state"] == "draining"
        assert status["completed"] == 4
        assert status["queue_depth"] == 0 and status["in_flight"] == 0

    def test_deadline_expires_in_queue(self):
        async def scenario():
            service = SimulationService(queue_limit=8, max_concurrency=1)
            await service.start()
            slow = service.submit(
                CellJob(label="CNL-UFS", kind="SLC", workload=TINY)
            )
            doomed = service.submit(
                CellJob(label="ION-GPFS", kind="PCM", workload=TINY,
                        deadline_s=0.001)
            )
            await slow.result()
            with pytest.raises(ServiceError) as exc:
                await doomed.result()
            status = service.status()
            await service.shutdown()
            return exc.value, status

        error, status = run(scenario())
        assert error.code == "deadline_expired"
        assert status["expired"] == 1
        assert status["completed"] == 1

    def test_cancel_before_dispatch(self):
        async def scenario():
            service = SimulationService(queue_limit=8, max_concurrency=1)
            await service.start()
            running = service.submit(
                CellJob(label="CNL-UFS", kind="SLC", workload=TINY)
            )
            queued = service.submit(
                CellJob(label="ION-GPFS", kind="SLC", workload=TINY)
            )
            cancelled = queued.cancel()
            await running.result()
            with pytest.raises(ServiceError) as exc:
                await queued.result()
            status = service.status()
            await service.shutdown()
            return cancelled, exc.value, status

        cancelled, error, status = run(scenario())
        assert cancelled is True
        assert error.code == "cancelled"
        assert status["cancelled"] == 1
        assert status["executed"] == 1  # the cancelled job never ran

    def test_priority_dispatch_order(self):
        async def scenario():
            service = SimulationService(queue_limit=8, max_concurrency=1)
            await service.start()
            order = []

            async def watch(handle, tag):
                await handle.result()
                order.append(tag)

            low = service.submit(
                CellJob(label="CNL-EXT2", kind="SLC", workload=TINY,
                        priority=0)
            )
            high = service.submit(
                CellJob(label="CNL-UFS", kind="SLC", workload=TINY,
                        priority=10)
            )
            await asyncio.gather(watch(low, "low"), watch(high, "high"))
            await service.shutdown()
            return order

        # single dispatcher: the high-priority job must finish first
        assert run(scenario()) == ["high", "low"]


class TestProgress:
    def test_progress_events_stream_and_terminate(self):
        async def scenario():
            service = SimulationService(queue_limit=8, max_concurrency=1)
            await service.start()
            handle = service.submit(
                CellJob(label="CNL-UFS", kind="SLC", workload=TINY)
            )
            events = []

            async def consume():
                async for event in handle.events():
                    events.append(event)

            consumer = asyncio.create_task(consume())
            result = await handle.result()
            await asyncio.wait_for(consumer, 5)  # sentinel ends the stream
            await service.shutdown()
            return events, result

        events, result = run(scenario())
        assert result["result"]["bandwidth_mb"] > 0
        assert events, "expected at least one progress event"
        last = events[-1]
        assert last["event"] == "progress"
        assert last["done"] == last["total"] == 1
        assert last["cell"] == ["CNL-UFS", "SLC"]


class TestAdmissionFailureReleasesLease:
    def test_bad_priority_does_not_orphan_the_coalescer_entry(self):
        """A rejected submit must not leave a lease later jobs coalesce on."""
        job = {"job": "cell", "label": "CNL-UFS", "kind": "SLC",
               "workload": {"panels": 2, "panel_bytes": 64 * KiB}}

        async def scenario():
            service = SimulationService(queue_limit=4, max_concurrency=1)
            await service.start()
            try:
                with pytest.raises(ServiceError) as exc:
                    service.submit({**job, "priority": "high"})
                assert exc.value.code == "invalid_job"
                assert service.coalescer.in_flight == 0
                handle = service.submit(job)
                assert not handle.coalesced
                result = await asyncio.wait_for(handle.result(), 60)
                return result, service.status()
            finally:
                # an orphaned entry would make the drain wait forever
                await asyncio.wait_for(service.shutdown(), 30)

        result, status = run(scenario())
        assert result["kind"] == "cell"
        assert status["completed"] == 1
        assert status["rejected"] == {"invalid_job": 1}

    def test_any_admission_failure_releases_the_lease(self, monkeypatch):
        async def scenario():
            service = SimulationService(queue_limit=4, max_concurrency=1)

            def boom(*args, **kwargs):
                raise RuntimeError("queue broke")

            monkeypatch.setattr(service.queue, "put_or_shed", boom)
            spec = CellJob(label="CNL-UFS", kind="SLC", workload=TINY)
            with pytest.raises(RuntimeError):
                service.submit(spec)
            return service.coalescer.in_flight

        assert run(scenario()) == 0
