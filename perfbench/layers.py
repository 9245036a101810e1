"""Per-layer metrics from a traced repetition, and the coverage check."""

from __future__ import annotations

import math

import spec
from tracing import LAYER_METRICS as SECONDS


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(rec) -> dict:
    """Self times, call counts and coverage of one traced repetition."""
    self_s = {metric: 0.0 for metric in SECONDS.values()}
    calls: dict[str, int] = {}
    roots = [s for s in rec.spans if s[0] == "timed"]
    root = roots[0] if roots else None
    named_in_root = 0
    for layer, t0, t1, _parent, _ident, child in rec.spans:
        calls[layer] = calls.get(layer, 0) + 1
        metric = SECONDS.get(layer)
        if metric is None:
            continue
        self_ns = t1 - t0 - child
        self_s[metric] += self_ns / 1e9
        if root is not None and root[1] <= t0 <= root[2]:
            named_in_root += self_ns
    return {
        "self_s": self_s,
        "calls": calls,
        "counts": dict(rec.counts),
        "coverage": named_in_root / (root[2] - root[1]) if root else 0.0,
        "queue_wait_ms": [s * 1e3 for s in rec.queue_wait_s],
        "exec_ms": [s * 1e3 for s in rec.exec_s],
    }


def metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json`` from one summary."""
    out = dict(summary["self_s"])
    calls = summary["calls"]
    c = summary["counts"]
    batch_cells = c.get("batch.cells", 0)
    batch_s = sum(v for k, v in summary["self_s"].items() if k.startswith("batch."))
    out["batch.cells"] = batch_cells
    out["batch.fallback_cells"] = calls.get("batch.plan", 0) - batch_cells
    batch_txns = c.get("batch.txns", 0)
    out["batch.host_ns_per_txn"] = batch_s * 1e9 / batch_txns if batch_txns else 0.0
    for key in ("ssd.txns_read", "ssd.txns_write", "ssd.txns_erase",
                "ftl.gc_runs", "ftl.gc_moved_pages", "faults.injected",
                "faults.penalty_ns"):
        out[key] = c.get(key, 0)
    host = c.get("ftl.host_writes_pages", 0)
    media = host + c.get("ftl.gc_moved_pages", 0) + c.get("ftl.wl_moved_pages", 0)
    # no media writes at all wastes none of them
    out["ftl.useful_write_ratio"] = host / media if media else 1.0
    gets = c.get("cache.gets", 0)
    out["cache.hit_ratio"] = c.get("cache.hits", 0) / gets if gets else 0.0
    out["service.queue_wait_ms_p50"] = percentile(summary["queue_wait_ms"], 0.50)
    out["service.queue_wait_ms_p99"] = percentile(summary["queue_wait_ms"], 0.99)
    out["service.exec_ms_p50"] = percentile(summary["exec_ms"], 0.50)
    out["service.exec_ms_p99"] = percentile(summary["exec_ms"], 0.99)
    out["obs.self_time_coverage"] = summary["coverage"]
    return out


def coverage_failures(workload: str, summary: dict) -> list[str]:
    """Every layer said to work on ``workload`` recorded calls there, and
    named layers' self time covers the timed region."""
    failures = []
    inverse = {metric: layer for layer, metric in SECONDS.items()}
    for metric, (home, _moves) in spec.LAYER_MAP.items():
        if home != workload:
            continue
        if metric in inverse:
            recorded = summary["calls"].get(inverse[metric], 0)
        elif metric.startswith("service.queue_wait"):
            recorded = len(summary["queue_wait_ms"])
        else:
            recorded = len(summary["exec_ms"])
        if not recorded:
            failures.append(f"layer {metric} recorded no calls on {workload}: "
                            "was its entry point renamed or moved?")
    if workload != "service-mix" and summary["coverage"] < spec.MIN_SELF_TIME_COVERAGE:
        failures.append(
            f"named layers cover {summary['coverage']:.1%} of the traced "
            f"timed region, below {spec.MIN_SELF_TIME_COVERAGE:.0%}"
        )
    return failures
