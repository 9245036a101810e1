"""The simulation service: admission → coalescing → executor bridge.

:class:`SimulationService` is the in-process core — an asyncio layer
that accepts typed :class:`~repro.service.jobs.JobSpec` submissions and
answers them from the experiment engine:

* **admission** — a bounded :class:`AdmissionQueue`; a full queue or a
  draining service rejects with a structured reason instead of
  buffering without bound,
* **coalescing** — identical in-flight jobs (same ``ResultCache``-level
  key) compute once; followers share the leader's future and progress
  stream,
* **execution** — ``max_concurrency`` dispatcher tasks feed the
  :class:`EngineExecutor`, which runs engine passes on a thread pool so
  the event loop never blocks,
* **observability** — per-job progress events, and a
  :meth:`SimulationService.status` snapshot (queue depth, in-flight,
  counters, latency percentiles, cache hit ratio).

:class:`ServiceServer` is a thin JSON-lines TCP front end over the same
core (``python -m repro serve``); requests are tagged with a client
``req`` id so one connection can multiplex many jobs.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from typing import AsyncIterator, Mapping, Optional, Union

from ..experiments.cache import ResultCache
from ..obs import trace as obs
from ..obs.export import CsvStatsRecorder, prometheus_text
from ..obs.registry import MetricsRegistry
from .coalescer import Coalescer, InflightEntry
from .executor import EngineExecutor
from .jobs import JobSpec, ServiceError, job_from_dict
from .metrics import ServiceMetrics
from .queue import AdmissionError, AdmissionQueue, JobShed

__all__ = ["JobHandle", "SimulationService", "ServiceServer"]

_EVENT_END = None  # sentinel closing a progress stream


class JobCancelled(ServiceError):
    code = "cancelled"


class DeadlineExpired(ServiceError):
    code = "deadline_expired"


class ExecutionFailed(ServiceError):
    code = "execution_failed"


class JobHandle:
    """One submission's view of a (possibly shared) in-flight job."""

    def __init__(self, service: "SimulationService", entry: InflightEntry,
                 job_id: int, coalesced: bool):
        self._service = service
        self._entry = entry
        self.id = job_id
        self.coalesced = coalesced  # True: attached to an existing leader
        self._detached = False

    @property
    def spec(self) -> JobSpec:
        return self._entry.spec

    @property
    def done(self) -> bool:
        return self._entry.future.done()

    async def result(self) -> dict:
        """The job's result payload; raises ServiceError on failure."""
        if self._detached:
            raise JobCancelled(f"job {self.id} was cancelled by this handle")
        return await asyncio.shield(self._entry.future)

    def cancel(self) -> bool:
        """Detach this handle; cancels the job only while still queued.

        Running jobs are not interrupted (an engine pass on a worker
        thread is not preemptible) — cancelling then returns False and
        the shared computation completes for any other waiters.
        """
        if self._detached or self._entry.future.done() or self._entry.started:
            return False
        self._detached = True
        self._service._on_handle_cancelled(self._entry)
        return True

    async def events(self) -> AsyncIterator[dict]:
        """Yield progress events until the job completes."""
        queue: asyncio.Queue = asyncio.Queue()
        self._entry.subscribers.append(queue)
        if self._entry.future.done():  # completed before subscription
            self._entry.subscribers.remove(queue)
            return
        try:
            while True:
                event = await queue.get()
                if event is _EVENT_END:
                    return
                yield event
        finally:
            if queue in self._entry.subscribers:
                self._entry.subscribers.remove(queue)


class SimulationService:
    """Long-running async façade over the experiment engine."""

    def __init__(
        self,
        workers_per_job: int = 1,
        cache: Optional[ResultCache] = None,
        queue_limit: int = 64,
        max_concurrency: int = 4,
        job_timeout_s: Optional[float] = None,
        executor_retries: int = 1,
        shed_low_priority: bool = True,
        stats: Optional[CsvStatsRecorder] = None,
    ):
        self.cache = cache if cache is not None else ResultCache()
        self.queue = AdmissionQueue(queue_limit)
        self.coalescer = Coalescer()
        self.metrics = ServiceMetrics()
        self.stats = stats
        self.executor = EngineExecutor(
            self.cache,
            workers_per_job,
            max_concurrency,
            max_retries=executor_retries,
            metrics=self.metrics,
            stats=stats,
        )
        self._registry = MetricsRegistry()
        #: default per-job execution budget; a job's own ``timeout_s``
        #: overrides it
        self.job_timeout_s = job_timeout_s
        #: graceful degradation: under a full queue, evict the lowest-
        #: priority queued job (typed ``shed``) for a higher-priority one
        self.shed_low_priority = bool(shed_low_priority)
        self.max_concurrency = max(1, int(max_concurrency))
        self._dispatchers: list[asyncio.Task] = []
        self._running: set[InflightEntry] = set()
        self._draining = False
        self._job_seq = itertools.count(1)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "SimulationService":
        if self._dispatchers:
            return self
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(), name=f"repro-dispatch-{i}")
            for i in range(self.max_concurrency)
        ]
        return self

    async def drain(self, poll_s: float = 0.01) -> None:
        """Stop admitting; wait until queued + running jobs finish."""
        self._draining = True
        self.queue.close()
        while self.coalescer.in_flight or self._running:
            await asyncio.sleep(poll_s)

    async def shutdown(self) -> None:
        """Graceful: drain in-flight work, then stop dispatchers."""
        await self.drain()
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._dispatchers.clear()
        self.executor.shutdown()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- submission -----------------------------------------------------
    def submit(self, spec: Union[JobSpec, Mapping]) -> JobHandle:
        """Admit one job; raises a structured ServiceError on refusal.

        Must be called with the service's event loop running.  Identical
        in-flight jobs coalesce: the returned handle then shares the
        leader's result without taking a queue slot.
        """
        self.metrics.submitted += 1
        try:
            if isinstance(spec, Mapping):
                spec = job_from_dict(spec)
            else:
                spec.validate()
            if self._draining:
                raise AdmissionError(
                    "service is draining; not accepting new jobs", code="draining"
                )
            entry, leader = self.coalescer.lease(spec.key(), spec)
            if leader:
                now = time.monotonic()
                entry.enqueued_at = now
                entry.expires_at = (
                    now + spec.deadline_s if spec.deadline_s is not None else None
                )
                try:
                    if self.shed_low_priority:
                        shed = self.queue.put_or_shed(entry, spec.priority)
                    else:
                        self.queue.put_nowait(entry, spec.priority)
                        shed = None
                except Exception:
                    # any admission failure releases the lease, or later
                    # identical jobs would coalesce onto a dead entry
                    self.coalescer.forget(entry)
                    raise
                self.metrics.admitted += 1
                if shed is not None:
                    self._shed_entry(shed)
            else:
                self.metrics.coalesced += 1
        except ServiceError as exc:
            self.metrics.reject(exc.code)
            raise
        return JobHandle(self, entry, next(self._job_seq), coalesced=not leader)

    def _shed_entry(self, entry: InflightEntry) -> None:
        """Fail a queued entry evicted to admit higher-priority work."""
        self.metrics.jobs_shed += 1
        self.coalescer.fail(
            entry,
            JobShed(
                f"{entry.spec.describe()} shed from a full queue by a "
                "higher-priority submission; resubmit later"
            ),
        )
        entry.future.exception()  # the submitter may be fire-and-forget
        self._finish_events(entry)

    def _on_handle_cancelled(self, entry: InflightEntry) -> None:
        self.metrics.cancelled += 1
        if self.coalescer.release(entry) and not entry.future.done():
            entry.future.set_exception(
                JobCancelled("job cancelled before dispatch")
            )
            entry.future.exception()  # no-one awaits a cancelled future
            self._finish_events(entry)

    # -- dispatch -------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            entry = await self.queue.get()
            if entry.cancelled or entry.future.done():
                continue
            if entry.expires_at is not None and time.monotonic() > entry.expires_at:
                self.metrics.expired += 1
                self.coalescer.fail(
                    entry,
                    DeadlineExpired(
                        f"deadline of {entry.spec.deadline_s}s lapsed in queue"
                    ),
                )
                self._finish_events(entry)
                continue
            entry.started = True
            self._running.add(entry)
            self.metrics.executed += 1
            started_at = time.monotonic()
            self._trace_job(entry, "queue", started_at - entry.enqueued_at)
            try:
                timeout_s = (
                    entry.spec.timeout_s
                    if entry.spec.timeout_s is not None
                    else self.job_timeout_s
                )
                payload = await self.executor.run(
                    entry.spec,
                    progress=lambda ev, e=entry: e.publish(
                        {"event": "progress", **ev}
                    ),
                    timeout_s=timeout_s,
                )
                self.coalescer.resolve(entry, payload)
                self.metrics.completed += 1
                self.metrics.latency.record(time.monotonic() - entry.enqueued_at)
                exec_s = time.monotonic() - started_at
                self._trace_job(entry, "service", exec_s)
                if self.stats is not None:
                    self.stats.on_job(
                        entry.spec.job_type, entry.spec.describe(), exec_s
                    )
            except asyncio.CancelledError:
                self.coalescer.fail(
                    entry, ExecutionFailed("service shut down mid-job")
                )
                self._finish_events(entry)
                self._running.discard(entry)
                raise
            except ServiceError as exc:
                self.metrics.failed += 1
                self.coalescer.fail(entry, exc)
                if self.stats is not None:
                    self.stats.on_job(
                        entry.spec.job_type, entry.spec.describe(),
                        time.monotonic() - started_at, status=exc.code,
                    )
            except Exception as exc:  # engine bug -> structured failure
                self.metrics.failed += 1
                self.coalescer.fail(
                    entry, ExecutionFailed(f"{type(exc).__name__}: {exc}")
                )
                if self.stats is not None:
                    self.stats.on_job(
                        entry.spec.job_type, entry.spec.describe(),
                        time.monotonic() - started_at, status="execution_failed",
                    )
            finally:
                self._finish_events(entry)
                self._running.discard(entry)

    @staticmethod
    def _finish_events(entry: InflightEntry) -> None:
        entry.publish(_EVENT_END)

    @staticmethod
    def _trace_job(entry: InflightEntry, layer: str, seconds: float) -> None:
        """Wall span for one job phase, stamped with the client trace id.

        Concurrent dispatcher tasks interleave, so these are recorded as
        pre-measured events (no span stack) — each is a root span.
        """
        tr = obs.tracer()
        if tr is not None:
            attrs = {}
            if entry.spec.trace_id is not None:
                attrs["trace_id"] = entry.spec.trace_id
            tr.wall_event(layer, entry.spec.describe(), seconds, **attrs)

    # -- observability --------------------------------------------------
    def status(self) -> dict:
        """The metrics snapshot the ``status`` endpoint serves."""
        return {
            "state": "draining" if self._draining else "serving",
            "queue_limit": self.queue.limit,
            "max_concurrency": self.max_concurrency,
            "workers_per_job": self.executor.workers_per_job,
            **self.metrics.snapshot(
                queue_depth=self.queue.depth,
                in_flight=len(self._running),
                cache_stats=self.cache.stats(),
            ),
            #: engine telemetry accumulated across jobs — fault/chaos
            #: counters, batch-vs-fallback provenance, pool sizing
            "engine": self.executor.engine_summary(),
        }

    #: flattened status keys that are monotonic counts, not gauges —
    #: drives counter-vs-gauge choice when the registry absorbs a snapshot
    _MONOTONIC = frozenset({
        "submitted", "admitted", "coalesced", "rejected_total", "executed",
        "completed", "failed", "cancelled", "expired", "retries", "timeouts",
        "jobs_shed", "hits", "memory_hits", "disk_hits", "misses", "puts",
        "corrupt_entries", "passes", "cells", "cached_cells",
        "faults_injected", "device_retries", "worker_crashes",
        "cell_timeouts", "cell_retries", "batch_cells", "fallback_cells",
    })

    def registry(self) -> MetricsRegistry:
        """The unified :class:`MetricsRegistry` view of :meth:`status`.

        Re-absorbs the current status snapshot on every call, so the
        Prometheus endpoint always reflects live counters; the rejected-
        by-code breakdown and nested cache/engine sections flatten into
        ``repro_service_*`` series.
        """
        snapshot = self.status()
        self._registry.absorb(
            "repro_service", snapshot, monotonic=self._MONOTONIC,
            help_text="repro service status",
        )
        return self._registry


class ServiceServer:
    """JSON-lines TCP front end over a :class:`SimulationService`.

    One request per line; responses carry the request's ``req`` tag so
    a single connection can run many jobs concurrently::

        {"op": "submit",  "req": 1, "job": {...}, "stream": true}
        {"op": "status",  "req": 2}
        {"op": "cancel",  "req": 3, "id": 7}
        {"op": "ping",    "req": 4}
        {"op": "metrics", "req": 5}   # Prometheus text exposition
    """

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> tuple[str, int]:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def close(self, shutdown_service: bool = True) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if shutdown_service:
            await self.service.shutdown()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        lock = asyncio.Lock()
        handles: dict[int, JobHandle] = {}
        tasks: set[asyncio.Task] = set()

        async def send(message: dict) -> None:
            async with lock:
                writer.write(json.dumps(message).encode() + b"\n")
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                except ValueError:
                    await send({"ok": False, "error": "bad_request",
                                "detail": "request is not valid JSON"})
                    continue
                task = asyncio.create_task(
                    self._handle_request(request, send, handles)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _handle_request(self, request, send, handles) -> None:
        req = request.get("req")
        op = request.get("op")
        try:
            if op == "submit":
                await self._handle_submit(request, req, send, handles)
            elif op == "status":
                await send({"req": req, "ok": True,
                            "status": self.service.status()})
            elif op == "metrics":
                # Prometheus text exposition on the status port
                await send({"req": req, "ok": True,
                            "metrics": prometheus_text(self.service.registry())})
            elif op == "cancel":
                handle = handles.get(request.get("id"))
                await send({"req": req, "ok": True,
                            "cancelled": bool(handle and handle.cancel())})
            elif op == "ping":
                await send({"req": req, "ok": True, "pong": True})
            else:
                await send({"req": req, "ok": False, "error": "bad_request",
                            "detail": f"unknown op {op!r}"})
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            await send({"req": req, "ok": False, "error": "internal",
                        "detail": f"{type(exc).__name__}: {exc}"})

    async def _handle_submit(self, request, req, send, handles) -> None:
        try:
            handle = self.service.submit(request.get("job", {}))
        except ServiceError as exc:
            await send({"req": req, "ok": False, **exc.to_dict()})
            return
        handles[handle.id] = handle
        await send({"req": req, "ok": True, "event": "accepted",
                    "id": handle.id, "coalesced": handle.coalesced})
        if request.get("stream"):
            async for event in handle.events():
                await send({"req": req, "id": handle.id, **event})
        try:
            result = await handle.result()
        except ServiceError as exc:
            await send({"req": req, "id": handle.id, "event": "error",
                        **exc.to_dict()})
            return
        await send({"req": req, "id": handle.id, "event": "result",
                    "result": result})
