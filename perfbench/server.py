"""The service-mix server: a ServiceServer in a process of its own.

    python3 perfbench/server.py --trace 0|1 [--spans PATH]

Prints ``{"port": N}`` once listening on 127.0.0.1, serves until its
stdin closes, then shuts down gracefully and prints one JSON summary:
peak RSS, the CPU time and simulated transactions since the generator
wrote ``mark`` on stdin (the start of the timed schedule), the
service's status counters and, when traced, the per-layer timings.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys

from rep import import_repro, peak_rss_mb


def cpu_seconds() -> float:
    """User + system CPU time of this process (all its threads)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


async def serve(rec) -> tuple[dict, dict]:
    import spec
    from repro.experiments.cache import ResultCache
    from repro.service.server import ServiceServer, SimulationService

    service = SimulationService(
        workers_per_job=1,
        cache=ResultCache(),
        queue_limit=spec.SERVER_QUEUE_LIMIT,
        max_concurrency=spec.SERVER_MAX_CONCURRENCY,
    )
    server = ServiceServer(service, "127.0.0.1", 0)
    _, port = await server.start()
    print(json.dumps({"port": port}), flush=True)
    loop = asyncio.get_running_loop()
    mark = {"cpu_s": cpu_seconds(), "txns": rec.counts["txns"]}
    while line := await loop.run_in_executor(None, sys.stdin.readline):
        if line.strip() == "mark":
            mark = {"cpu_s": cpu_seconds(), "txns": rec.counts["txns"]}
    # stdin closed: the schedule is over
    timed = {"cpu_s": cpu_seconds() - mark["cpu_s"],
             "txns": rec.counts["txns"] - mark["txns"]}
    status = service.status()
    await server.close()
    return status, timed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)
    import_repro()
    import tracing

    rec = tracing.Recorder(bool(args.trace)).install()
    status, timed = asyncio.run(serve(rec))
    rec.close()
    out = {
        "peak_rss_mb": peak_rss_mb(),
        "cpu_s": timed["cpu_s"],
        "txns": timed["txns"],
        "status": {k: status[k] for k in (
            "submitted", "admitted", "coalesced", "rejected_total",
            "executed", "completed", "failed", "timeouts")},
        "engine": {k: status["engine"][k] for k in ("cells", "cached_cells")},
    }
    if rec.trace:
        import layers

        out["layers"] = layers.summarize(rec)
        if args.spans:
            rec.dump(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
