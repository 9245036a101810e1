"""Timing shims around each layer's public entry points.

The benchmark never edits ``src/``.  Instead, :class:`Recorder` replaces
the entry points listed in :meth:`Recorder._targets` with wrappers, in every
loaded ``repro`` module that holds them (``repro.batch.backend`` imports
``plan_cell`` by name, so patching only ``repro.batch.plan`` would miss
the call), and on every class in a method's subclass tree that defines
its own copy (``ColumnarScheduler`` overrides ``submit``).

Each wrapped call becomes a span ``[layer, start_ns, end_ns, parent,
ident, child_ns]`` on a per-thread stack.  ``child_ns`` accumulates the
children's durations as they close, so a span's self time is
``end - start - child_ns``.  ``ident`` is the cell or job the span works
for.  Spans stay in memory; :meth:`Recorder.dump` writes them out when
the repetition ends.

A recorder built with ``trace=False`` installs only the counting hook
the untraced end-to-end metrics need (transactions per replay), which
costs one call per replay.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

#: self-time span layers -> the per-layer metric (seconds) they feed.
#: The other span layers are glue no named layer owns: the benchmark's
#: timed region itself, a lifetime cell's set-up, and a service job's
#: execution (reported as percentiles instead).
LAYER_METRICS = {
    "batch.plan": "batch.plan_s",
    "batch.stack": "batch.stack_s",
    "batch.recurrence_main": "batch.recurrence_main_s",
    "batch.recurrence_peak": "batch.recurrence_peak_s",
    "batch.dispatch": "batch.dispatch_s",
    "batch.metrics": "batch.metrics_s",
    "batch.pattern_peak": "batch.pattern_peak_s",
    "batch.segments": "batch.segments_s",
    "ssd.ftl_translate": "ssd.ftl_translate_s",
    "ssd.preload": "ssd.preload_s",
    "ssd.scheduler": "ssd.scheduler_s",
    "ssd.dispatch": "ssd.dispatch_s",
    "ssd.metrics": "ssd.metrics_s",
    "ssd.pattern_peak": "ssd.pattern_peak_s",
    "fs.translate": "fs.translate_s",
    "trace.gen": "trace.gen_s",
    "lifetime.age": "lifetime.age_s",
    "lifetime.wear_report": "lifetime.wear_report_s",
    "engine.run_cells": "engine.run_cells_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "exhibit.render": "exhibit.render_s",
}

_PATTERN_PEAK = ("ssd.pattern_peak", "batch.pattern_peak")


def _resolve(path: str):
    """``"pkg.mod:Name.attr"`` -> (owner object, attribute name)."""
    mod_name, _, qual = path.partition(":")
    owner = importlib.import_module(mod_name)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if not hasattr(owner, parts[-1]):
        raise AttributeError(
            f"benchmark shim target {path!r} no longer exists: the entry "
            "point was renamed or moved, update perfbench/tracing.py"
        )
    return owner, parts[-1]


class Recorder:
    """Installs the shims, keeps spans and counts, restores on close."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: host seconds of each lifetime cell, for operation latencies
        self.cell_seconds: list[float] = []
        #: id(SSDevice) -> cell id, filled when a batch plan is built
        self.device_cells: dict[int, str] = {}
        #: (cell/job ident, monotonic admission time) for queue waits
        self.admitted: dict[str, float] = {}
        self.queue_wait_s: list[float] = []
        self.exec_s: list[float] = []
        #: (WRITE txns in the log, host + GC + WL pages) per replay
        self.media_writes: list[tuple[int, int]] = []
        self._tls = threading.local()
        #: service executor threads update the counts concurrently
        self._count_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._wrapped: set[tuple[type, str]] = set()

    # -- installing -----------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_function(self, path: str, wrapper_of) -> None:
        """Replace a module-level function wherever it is bound."""
        owner, name = _resolve(path)
        original = getattr(owner, name)
        wrapper = wrapper_of(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def patch_method(self, path: str, wrapper_of) -> None:
        """Wrap a method on its class and on every overriding subclass."""
        cls, name = _resolve(path)
        todo, seen = [cls], set()
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            # an override already wrapped for a more specific layer
            # (ColumnarScheduler.submit) keeps that layer
            if name in klass.__dict__ and (klass, name) not in self._wrapped:
                self._wrapped.add((klass, name))
                self._set(klass, name, wrapper_of(klass.__dict__[name]))

    def close(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        self._wrapped.clear()

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_layer(self) -> str | None:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def spanned(self, layer_of, ident_of=None, after=None):
        """Decorator factory: time calls as spans of ``layer_of(args)``.

        ``layer_of(args)`` returning ``None`` folds the call into the
        enclosing span's self time.  ``after(args, result)`` runs on
        success and updates counts.
        """
        rec = self
        clock = time.perf_counter_ns

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = rec._stack()
                layer = layer_of(args)
                if layer is None:
                    result = fn(*args, **kwargs)
                else:
                    parent = stack[-1] if stack else None
                    ident = ident_of(args, kwargs) if ident_of else None
                    if ident is None and parent is not None:
                        ident = parent[4]
                    span = [layer, clock(), 0, parent, ident, 0]
                    stack.append(span)
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        span[2] = clock()
                        stack.pop()
                        if parent is not None:
                            parent[5] += span[2] - span[1]
                        rec.spans.append(span)
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        return wrap

    def open_root(self, layer: str) -> list:
        """Start the root span: the benchmark's timed region itself."""
        span = [layer, time.perf_counter_ns(), 0, None, None, 0]
        self._stack().append(span)
        return span

    def close_root(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack().remove(span)
        self.spans.append(span)

    # -- counting hooks ---------------------------------------------------
    def _count_replay(self, args, result) -> None:
        """Transactions, GC and fault counts of one finished replay."""
        from repro.ssd.request import OpCode

        log = result.log
        n = len(log)
        ops = log["op"] if n else ()
        reads = int((ops == OpCode.READ).sum()) if n else 0
        writes = int((ops == OpCode.WRITE).sum()) if n else 0
        stats = result.ftl_stats or {}
        faults = result.fault_stats or {}
        # every programmed page is a WRITE transaction in the log, so the
        # log is an independent count of the FTL's media writes
        self.media_writes.append((
            writes,
            stats.get("host_writes_pages", 0) + stats.get("gc_moved_pages", 0)
            + stats.get("wl_moved_pages", 0),
        ))
        with self._count_lock:
            c = self.counts
            c["txns"] += n
            c["ssd.txns_read"] += reads
            c["ssd.txns_write"] += writes
            c["ssd.txns_erase"] += n - reads - writes
            if args[0].scheduler_factory is not None:
                c["batch.txns"] += n
            for key in ("gc_runs", "gc_moved_pages", "wl_moved_pages",
                        "host_writes_pages"):
                c[f"ftl.{key}"] += stats.get(key, 0)
            c["faults.injected"] += faults.get("faults_injected", 0)
            c["faults.penalty_ns"] += faults.get("penalty_ns", 0)

    def install(self) -> "Recorder":
        """Patch the entry points; only the replay counter unless tracing."""
        if not self.trace:
            self.patch_method(
                "repro.ssd.controller:SSDevice.run",
                self._after_only(self._count_replay),
            )
            return self
        # modules that bind a target by name must be loaded before patching
        for module in ("repro.batch.backend", "repro.lifetime.sweep",
                       "repro.service.server", "repro.experiments.figures",
                       "repro.experiments.headline", "repro.fs.registry",
                       "repro.core.ufs"):
            importlib.import_module(module)
        for path, kind, layer_of, ident_of, after in self._targets():
            wrap = self.spanned(layer_of, ident_of, after)
            if kind == "method":
                self.patch_method(path, wrap)
            else:
                self.patch_function(path, wrap)
        self._install_service()
        return self

    @staticmethod
    def _after_only(after):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(args, result)
                return result

            return wrapper

        return wrap

    def time_lifetime_cells(self) -> None:
        """Time each lifetime cell (untraced runs use the times as
        operation latencies)."""
        if self.trace:
            return  # traced cells are spans already

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                self.cell_seconds.append(time.perf_counter() - t0)
                return result

            return wrapper

        self.patch_function("repro.lifetime.sweep:run_lifetime_cell", wrap)

    # -- the traced entry points -----------------------------------------
    def _targets(self):
        """(path, kind, layer_of, ident_of, after) for every shim."""
        rec = self

        def const(layer):
            return lambda args: layer

        def cell_of(args, kwargs):
            return f"{args[0]}|{args[1]}"

        def lifetime_cell_of(args, kwargs):
            return f"{args[0]}|{args[1]}|{args[2]:g}"

        def after_plan(args, plan) -> None:
            with rec._count_lock:
                rec.counts["batch.cells"] += 1
            rec.device_cells[id(plan.path.device)] = f"{plan.label}|{plan.kind_name}"

        def dispatch_layer(args):
            return "batch.dispatch" if args[0].scheduler_factory else "ssd.dispatch"

        def device_cell(args, kwargs):
            return rec.device_cells.get(id(args[0]))

        def recurrence_layer(args):
            unconstrained = args[0].bus.name == "infinite"
            return "batch.recurrence_peak" if unconstrained else "batch.recurrence_main"

        def scheduler_layer(args):
            # the pattern peaks run a scheduler of their own; that time
            # belongs to the peak, not to the replay's scheduler
            return None if rec.current_layer() in _PATTERN_PEAK else "ssd.scheduler"

        def after_cache_get(args, hit) -> None:
            with rec._count_lock:
                rec.counts["cache.gets"] += 1
                rec.counts["cache.hits"] += hit is not None

        yield ("repro.batch.plan:plan_cell", "function", const("batch.plan"),
               cell_of, after_plan)
        yield ("repro.batch.plan:stack_plans", "function", const("batch.stack"),
               None, None)
        for name in ("submit", "finish"):
            yield (f"repro.batch.scheduler:ColumnarScheduler.{name}", "method",
                   recurrence_layer, None, None)
        yield ("repro.ssd.controller:SSDevice.run", "method", dispatch_layer,
               device_cell, self._count_replay)
        yield ("repro.batch.metrics:compute_metrics_batch", "function",
               const("batch.metrics"), lambda a, k: "*", None)
        yield ("repro.batch.metrics:pattern_peak_from_log", "function",
               const("batch.pattern_peak"), None, None)
        for name in ("sorted_filter", "measure_sorted", "union_measure",
                     "distinct_count"):
            yield (f"repro.batch.segments:{name}", "function",
                   const("batch.segments"), None, None)
        yield ("repro.ssd.ftl:DeviceFTL.translate", "method",
               const("ssd.ftl_translate"), None, None)
        yield ("repro.core.architecture:StoragePath.format_and_preload", "method",
               const("ssd.preload"), None, None)
        for name in ("submit", "finish"):
            yield (f"repro.ssd.scheduler:TransactionScheduler.{name}", "method",
                   scheduler_layer, None, None)
        yield ("repro.ssd.metrics:compute_metrics", "function",
               const("ssd.metrics"), None, None)
        yield ("repro.ssd.metrics:media_pattern_peak", "function",
               const("ssd.pattern_peak"), None, None)
        yield ("repro.fs.base:FileSystemModel.translate", "method",
               const("fs.translate"), None, None)
        yield ("repro.experiments.runner:Workload.traces", "method",
               const("trace.gen"), None, None)
        yield ("repro.lifetime.aging:install_age", "function",
               const("lifetime.age"), None, None)
        yield ("repro.nvm.endurance:wear_report", "function",
               const("lifetime.wear_report"), None, None)
        yield ("repro.experiments.parallel:MatrixEngine.run_cells", "method",
               const("engine.run_cells"), None, None)
        yield ("repro.experiments.runner:run_config", "function",
               const("engine.run_cells"), cell_of, None)
        yield ("repro.lifetime.sweep:run_lifetime_cell", "function",
               const("lifetime.cell"), lifetime_cell_of, None)
        for name in ("get_cell", "get_lifetime", "get_peak"):
            yield (f"repro.experiments.cache:ResultCache.{name}", "method",
                   const("cache.get"), None, after_cache_get)
        for name in ("put_cell", "put_lifetime", "put_peak"):
            yield (f"repro.experiments.cache:ResultCache.{name}", "method",
                   const("cache.put"), None, None)
        for name in ("figure7", "figure8", "figure9", "figure10"):
            yield (f"repro.experiments.figures:{name}", "function",
                   const("exhibit.render"), None, None)
        yield ("repro.experiments.headline:compute_headline", "function",
               const("exhibit.render"), None, None)

    def _install_service(self) -> None:
        """Queue-wait and execution timing inside the service process."""
        rec = self

        def submit_of(fn):
            @functools.wraps(fn)
            def wrapper(service, spec, *args, **kwargs):
                handle = fn(service, spec, *args, **kwargs)
                if not handle.coalesced:
                    rec.admitted[handle.spec.key()] = time.monotonic()
                return handle

            return wrapper

        def execute_of(fn):
            timed = rec.spanned(lambda args: "service.exec",
                                lambda args, kwargs: args[0].describe())(fn)

            @functools.wraps(fn)
            def wrapper(spec, engine, *args, **kwargs):
                t0 = time.monotonic()
                admitted = rec.admitted.pop(spec.key(), None)
                if admitted is not None:
                    rec.queue_wait_s.append(t0 - admitted)
                try:
                    return timed(spec, engine, *args, **kwargs)
                finally:
                    rec.exec_s.append(time.monotonic() - t0)

            return wrapper

        self.patch_method("repro.service.server:SimulationService.submit", submit_of)
        self.patch_function("repro.service.executor:execute_job", execute_of)

    # -- results ----------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one JSON line: layer, times, parent, ident."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, (layer, t0, t1, parent, ident, child) in enumerate(self.spans):
                fh.write(json.dumps([
                    i, layer, t0, t1,
                    index.get(id(parent)) if parent is not None else None,
                    ident, child,
                ]) + "\n")
