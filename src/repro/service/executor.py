"""Executor bridge: drive the blocking engine from the event loop.

:class:`MatrixEngine` is synchronous (and, with ``workers > 1``, fans
out over a process pool).  The bridge runs each job's engine pass on a
bounded thread pool via :func:`asyncio.run_in_executor` so the event
loop keeps serving submissions, status queries and progress streams
while cells compute.  The engine's ``progress`` hook fires on the
worker thread; events are marshalled back onto the loop with
``call_soon_threadsafe`` before they reach any subscriber.

All jobs share one :class:`ResultCache`, so a cell computed for one
job is a cache hit for every later job that overlaps it (CPython dict
operations are atomic under the GIL; disk entries are written via
atomic rename — see ``experiments/cache.py``).

Resilience: each engine pass runs under an optional wall-clock budget
(``timeout_s`` → typed :class:`JobTimeout`, code ``timeout``) and
transient failures — classified by
:func:`~repro.faults.errors.is_transient`: crashed pool workers, typed
transient faults, dropped connections — are retried with exponential
backoff up to ``max_retries`` times before surfacing.  A timed-out
engine pass cannot be preempted (it runs on a worker thread); the job
fails promptly while the orphaned pass finishes in the background and
its cells still land in the shared cache.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Optional

from ..experiments.cache import ResultCache, cell_payload
from ..experiments.parallel import MatrixEngine
from ..faults.errors import is_transient
from ..obs.export import CsvStatsRecorder
from .jobs import JobSpec, ServiceError
from .metrics import ServiceMetrics

__all__ = ["EngineExecutor", "JobTimeout", "execute_job", "result_to_payload"]

#: a ConfigResult as the JSON-safe dict the wire protocol carries
result_to_payload = cell_payload


class JobTimeout(ServiceError):
    """The job's engine pass exceeded its wall-clock budget."""

    code = "timeout"


def execute_job(spec: JobSpec, engine: MatrixEngine) -> dict:
    """Run one validated job to a JSON-serialisable result payload.

    Blocking; called on an executor thread.  The spec computes itself
    (:meth:`JobSpec.run`); its report renders the payload.
    """
    return spec.run(engine).to_payload()


class EngineExecutor:
    """Bounded thread pool running engine passes off the event loop.

    ``max_retries`` extra attempts are granted to jobs that fail with a
    *transient* error (``is_transient``); ``retry_backoff_s`` seeds the
    exponential backoff between attempts.  ``metrics``, when given,
    gets its ``retries``/``timeouts`` counters bumped in place.
    """

    def __init__(
        self,
        cache: ResultCache,
        workers_per_job: int = 1,
        max_concurrency: int = 4,
        max_retries: int = 1,
        retry_backoff_s: float = 0.05,
        metrics: Optional[ServiceMetrics] = None,
        stats: Optional[CsvStatsRecorder] = None,
    ):
        self.cache = cache
        self.workers_per_job = max(1, int(workers_per_job))
        self.max_concurrency = max(1, int(max_concurrency))
        self.max_retries = max(0, int(max_retries))
        self.retry_backoff_s = max(0.0, float(retry_backoff_s))
        self.metrics = metrics
        self.stats = stats
        self._threads = ThreadPoolExecutor(
            max_workers=self.max_concurrency, thread_name_prefix="repro-exec"
        )
        #: cross-job engine roll-up served by the ``status`` endpoint:
        #: fault/supervision counters and batch provenance sum over every
        #: engine pass; ``pool`` keeps the most recent sizing decision
        self._engine_totals: dict = {
            "passes": 0,
            "cells": 0,
            "cached_cells": 0,
            "cell_seconds": 0.0,
            "faults": {},
            "batch": {},
            "pool": None,
        }

    def _absorb_engine(self, engine: MatrixEngine) -> None:
        """Fold one finished engine pass into the cross-job roll-up."""
        summary = engine.summary()
        tot = self._engine_totals
        tot["passes"] += 1
        tot["cells"] += summary["cells"]
        tot["cached_cells"] += summary["cached_cells"]
        tot["cell_seconds"] += summary["cell_seconds"]
        for section in ("faults", "batch"):
            for key, value in (summary.get(section) or {}).items():
                tot[section][key] = tot[section].get(key, 0) + value
        if summary.get("pool") is not None:
            tot["pool"] = summary["pool"]

    def engine_summary(self) -> dict:
        """Accumulated engine telemetry across all executed jobs."""
        return {
            **self._engine_totals,
            "faults": dict(self._engine_totals["faults"]),
            "batch": dict(self._engine_totals["batch"]),
        }

    def _execute(self, spec: JobSpec, engine: MatrixEngine) -> dict:
        """One blocking engine pass; the seam resilience tests override
        to inject transient failures without touching the engine."""
        return execute_job(spec, engine)

    async def run(
        self,
        spec: JobSpec,
        progress: Optional[Callable[[dict], None]] = None,
        timeout_s: Optional[float] = None,
    ) -> dict:
        """Execute ``spec``; ``progress`` is called on the event loop.

        Raises :class:`JobTimeout` when one attempt outlives
        ``timeout_s``; transient failures are retried (see class
        docstring) and only the final one propagates.
        """
        loop = asyncio.get_running_loop()
        hook = None
        if progress is not None:

            def hook(done, total, cell, seconds, cached):  # worker thread
                loop.call_soon_threadsafe(
                    progress,
                    {
                        "done": done,
                        "total": total,
                        "cell": list(cell),
                        "seconds": seconds,
                        "cached": cached,
                    },
                )

        engine = MatrixEngine(
            workers=self.workers_per_job, cache=self.cache, progress=hook,
            stats=self.stats,
        )
        attempt = 0
        while True:
            try:
                fut = loop.run_in_executor(
                    self._threads, partial(self._execute, spec, engine)
                )
                if timeout_s is not None:
                    result = await asyncio.wait_for(fut, timeout_s)
                else:
                    result = await fut
                self._absorb_engine(engine)
                return result
            except asyncio.TimeoutError:
                if self.metrics is not None:
                    self.metrics.timeouts += 1
                raise JobTimeout(
                    f"{spec.describe()} exceeded its {timeout_s:g}s "
                    "execution budget"
                ) from None
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                if attempt >= self.max_retries or not is_transient(exc):
                    raise
                attempt += 1
                if self.metrics is not None:
                    self.metrics.retries += 1
                await asyncio.sleep(self.retry_backoff_s * 2 ** (attempt - 1))

    def shutdown(self, wait: bool = True) -> None:
        self._threads.shutdown(wait=wait)
