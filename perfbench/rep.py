"""One repetition of one workload, in a fresh process.

    python3 perfbench/rep.py --workload figures --seed 1 --trace 0 \
        --spawned-at <monotonic seconds> [--check] [--jobs N --part I]
        [--setup-only]

Prints one JSON object on its last stdout line: the timed work's wall
and CPU time, set-up time (from ``--spawned-at``, the parent's clock
reading just before it started this process, to the first timed call),
peak RSS, simulated transactions, per-operation latencies, every
simulated output (the parent digests them) and
any output-check failures.  With ``--trace 1`` it also carries the
per-layer self times and counts of :mod:`tracing`, and writes the spans
to ``.bench_out/``.  ``--check`` asks for the checks that stand in for
a committed digest (see :mod:`checks`).  ``--setup-only`` stops after
set-up, so a run can sample set-up time more often than it repeats the
timed work.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"


def import_repro() -> None:
    """Put the checkout's ``src`` first on the path, or fail loudly."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no repro package under {src}; run from a checkout")
    sys.path.insert(0, str(src))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# --------------------------------------------------------------------------
def figures(seed: int, rec_trace: bool, check: bool, setup_only: bool) -> dict:
    import spec
    import tracing
    import repro.batch  # noqa: F401 - the engine imports it lazily
    from repro.core.architecture import ION_CLIENTS_PER_SSD
    from repro.experiments import figures as fig
    from repro.experiments import headline
    from repro.experiments.cache import ResultCache
    from repro.experiments.parallel import MatrixEngine
    from repro.experiments.runner import Workload

    class SeededEngine(MatrixEngine):
        """The exhibits call the engine with the default seed; this
        engine substitutes the workload's simulation seed."""

        def run_cells(self, cells, workload, seed=None, with_remaining=True):
            return super().run_cells(cells, workload, self.sim_seed, with_remaining)

    workload = Workload(panels=spec.FIGURES_PANELS,
                        panel_bytes=spec.FIGURES_PANEL_BYTES)
    rec = tracing.Recorder(rec_trace).install()
    for clients in sorted({1, ION_CLIENTS_PER_SSD}):
        workload.traces(clients)
    engine = SeededEngine(workers=1, backend="batch", cache=ResultCache())
    engine.sim_seed = seed

    setup_end = time.monotonic()
    if setup_only:
        rec.close()
        return {"setup_end": setup_end}
    root = rec.open_root("timed")
    t0, c0 = time.perf_counter(), time.process_time()
    f7 = fig.figure7(workload, engine=engine)
    f8 = fig.figure8(workload, engine=engine)
    fig.figure9(workload, engine=engine)
    fig.figure10(workload, engine=engine)
    head = headline.compute_headline(workload, engine=engine)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    rec.close_root(root)
    rec.close()

    cells = {**f7.data["results"], **f8.data["results"]}
    ratio = head.average_native16_over_ion
    out = {
        "setup_end": setup_end,
        "wall_s": wall,
        "cpu_s": cpu,
        "ops": len(cells),
        "op_seconds": [t.seconds for t in engine.timings if not t.cached],
        "outputs": {
            "cells": {f"{label}|{kind}": cell_fields(r)
                      for (label, kind), r in sorted(cells.items())},
            "headline_ratio": ratio,
        },
        "headline_err": abs(ratio - spec.PAPER_HEADLINE_RATIO)
        / spec.PAPER_HEADLINE_RATIO,
        "check_failures": [],
    }
    if check:
        import checks

        out["check_failures"] = checks.figures_scalar_sample(
            cells, workload, seed, spec.SCALAR_SAMPLE_CELLS
        )
    return finish(out, rec)


def cell_fields(result) -> dict:
    """Every simulated field of a ConfigResult (provenance excluded)."""
    from repro.experiments.cache import _CELL_FIELDS

    return {f: getattr(result, f) for f in _CELL_FIELDS if f != "backend"}


# --------------------------------------------------------------------------
def checkpoint_aged(seed: int, rec_trace: bool, setup_only: bool) -> dict:
    import dataclasses

    import numpy as np

    import spec
    import tracing
    from repro.core.architecture import ION_CLIENTS_PER_SSD
    from repro.experiments.runner import Workload
    from repro.interconnect import bridged_pcie2
    from repro.lifetime import sweep
    from repro.lifetime.wear import WearPolicy
    from repro.nvm import ONFI3_SDR400, SLC
    from repro.ssd import (CommandGroup, DeviceCommand, Geometry, PosixRequest,
                           SSDevice)

    workload = Workload(
        panels=spec.LIFETIME_PANELS, panel_bytes=spec.LIFETIME_PANEL_BYTES,
        iterations=spec.LIFETIME_ITERATIONS, stream="checkpoint",
    )
    rec = tracing.Recorder(rec_trace).install()
    rec.time_lifetime_cells()
    for clients in sorted({1, ION_CLIENTS_PER_SSD}):
        workload.traces(clients)

    # the GC segment's device and command stream are inputs: built here
    geom = Geometry(kind=SLC, channels=4, packages_per_channel=4,
                    dies_per_package=2, planes_per_die=2, blocks_per_plane=24)
    logical = int(geom.capacity_bytes * (1.0 - spec.GC_OVERPROVISION) * spec.GC_FILL)
    device = SSDevice(geometry=geom, bus=ONFI3_SDR400, host=bridged_pcie2(8),
                      logical_bytes=logical, overprovision=spec.GC_OVERPROVISION)
    device.preload(logical)  # the device starts full
    rng = np.random.default_rng(seed)
    chunk = spec.GC_CHUNK
    groups = []
    for _ in range(spec.GC_BYTES // chunk):
        off = int(rng.integers(0, logical // chunk)) * chunk
        groups.append(CommandGroup(posix=PosixRequest("write", 0, off, chunk),
                                   commands=[DeviceCommand("write", off, chunk)]))

    setup_end = time.monotonic()
    if setup_only:
        rec.close()
        return {"setup_end": setup_end}
    root = rec.open_root("timed")
    t0, c0 = time.perf_counter(), time.process_time()
    report = sweep.lifetime_sweep(
        spec.LIFETIME_LABELS, spec.LIFETIME_KINDS, spec.LIFETIME_AGES,
        policy=WearPolicy(spec.LIFETIME_POLICY), workload=workload, seed=seed,
    )
    t_gc = time.perf_counter()
    gc = device.run(groups, posix_window=spec.GC_POSIX_WINDOW)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    gc_seconds = time.perf_counter() - t_gc
    rec.close_root(root)
    rec.close()

    results = {f"{label}|{kind}|{age:g}": dataclasses.asdict(r)
               for (label, kind, age), r in report.results.items()}
    out = {
        "setup_end": setup_end,
        "wall_s": wall,
        "cpu_s": cpu,
        "ops": len(results) + 1,
        "op_seconds": rec.cell_seconds + [gc_seconds],
        "outputs": {"cells": results, "gc_ftl_stats": gc.ftl_stats},
        "check_failures": [],
    }
    # cheap, so run for every seed, digest or not: the log's WRITE
    # transactions are an independent count of media writes, which must
    # equal host writes + GC + WL relocations
    failures = out["check_failures"]
    for writes, accounted in rec.media_writes:
        if writes != accounted:
            failures.append(f"replay programmed {writes} pages, FTL accounts "
                            f"for {accounted}")
    for key, r in results.items():
        if not r["waf"] >= 1.0:
            failures.append(f"{key}: WAF {r['waf']} < 1")
    if not device.ftl.waf >= 1.0:
        failures.append(f"GC segment: WAF {device.ftl.waf} < 1")
    return finish(out, rec)


# --------------------------------------------------------------------------
def finish(out: dict, rec) -> dict:
    out["peak_rss_mb"] = peak_rss_mb()
    out["txns"] = rec.counts["txns"]
    if rec.trace:
        import layers

        out["layers"] = layers.summarize(rec)
        out["spans"] = rec.dump
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--jobs", type=int, default=0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up; report only setup_s")
    args = ap.parse_args(argv)
    import_repro()
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}-{args.part}.jsonl"
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)

    if args.workload == "figures":
        out = figures(args.seed, bool(args.trace), args.check, args.setup_only)
    elif args.workload == "checkpoint-aged":
        out = checkpoint_aged(args.seed, bool(args.trace), args.setup_only)
    elif args.workload == "service-mix":
        import service_mix

        out = service_mix.generate(args.seed, args.part, bool(args.trace),
                                   args.check, args.jobs, spans_path,
                                   args.setup_only)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")
    out["setup_s"] = out.pop("setup_end") - args.spawned_at
    dump = out.pop("spans", None)
    if dump is not None:
        dump(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
