"""Command-line reproduction harness.

Usage::

    python -m repro list                    # available exhibits
    python -m repro figure7                 # regenerate one exhibit
    python -m repro all                     # regenerate everything
    python -m repro headline                # the headline claims
    python -m repro figure7 --scale 0.5     # smaller workload
    python -m repro all -o results/         # write exhibits to a dir
    python -m repro all --workers 8         # parallel matrix cells
    python -m repro all --cache-dir ~/.cache/repro   # reuse across runs
    python -m repro figure7 --faults        # deterministic fault injection
    python -m repro serve --port 8077       # simulation-as-a-service
    python -m repro lint                    # determinism/invariant analyzer
    python -m repro flow                    # whole-program dataflow analyzer
    python -m repro table2 --trace t.jsonl  # record an obs trace
    python -m repro obs report t.jsonl      # per-layer time breakdown
    python -m repro lifetime                # aged-device capacity sweep
    python -m repro lifetime --ages 0,0.9 --policy static --prom m.txt
    python -m repro netfault                # lossy-fabric degradation sweep
    python -m repro netfault --loss-rates 0,0.05 --stats-dir stats/
    python -m repro netfault --replay examples/trace_replay.jsonl

Each exhibit prints the same rows/series the paper plots; ``--out``
additionally writes one text file per exhibit.  The matrix exhibits
(figures 7-10, headline) share one :class:`MatrixEngine`: ``--workers``
fans independent (config, kind) cells out over a process pool
(``--workers 0`` auto-detects), and an in-memory result cache dedupes
the cells the figures have in common; ``--cache-dir`` persists it.

``--faults`` overlays the default chaos regime
(:meth:`repro.faults.FaultSpec.default_chaos`) on every matrix cell:
seeded, deterministic device read-retries and die failures (plus pool
worker chaos), recovered automatically and reported in a fault footer.
``--fault-seed`` (or the ``REPRO_FAULT_SEED`` env var) pins the seed so
two runs inject byte-identical faults.

The ``lifetime`` and ``netfault`` subcommands are specs from the
service's exhibit registry (:mod:`repro.service.jobs`): each maps its
own flags onto a :class:`~repro.service.jobs.LifetimeJob` /
:class:`~repro.service.jobs.NetfaultJob` and hands it to one generic
runner (:func:`_run_subcommand`), which owns the shared flags
(``--scale``, ``--workers``, ``--cache-dir``, ``--faults``/
``--fault-seed``, ``--trace``, ``--prom``, ``-o``), runs
``spec.run(engine)`` and prints the footers — so the CLI computes
exactly what the service's job of the same spec computes.

``serve`` starts the long-running JSON-lines TCP service
(:mod:`repro.service`): every registered job type, bounded admission
queue with backpressure, in-flight coalescing, streaming progress and a
``status`` metrics endpoint.  Talk to it with
:class:`repro.service.ServiceClient` (see
``examples/service_quickstart.py``).
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

from .experiments import (
    MatrixEngine,
    ResultCache,
    Workload,
    anticache_experiment,
    compute_headline,
    figure1,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    table1,
    table2,
)

MiB = 1024 * 1024


def _workload(scale: float, stream: str = "eigensolver") -> Workload:
    return Workload(
        panels=max(2, int(round(12 * scale))),
        panel_bytes=8 * MiB,
        # the checkpoint stream needs several double-buffered rewrites
        # per region before GC churn separates the leveling policies
        iterations=4 if stream == "checkpoint" else 1,
        stream=stream,
    )


def _exhibits(scale: float, engine: MatrixEngine):
    w = _workload(scale)
    return {
        "figure1": lambda: figure1().text,
        "table1": lambda: table1().text,
        "table2": lambda: table2().text,
        "figure6": lambda: figure6().text,
        "figure7": lambda: figure7(w, engine=engine).text,
        "figure8": lambda: figure8(w, engine=engine).text,
        "figure9": lambda: figure9(w, engine=engine).text,
        "figure10": lambda: figure10(w, engine=engine).text,
        "headline": lambda: compute_headline(w, engine=engine).render(),
        "anticache": lambda: anticache_experiment().render(),
    }


# -- flags ---------------------------------------------------------------
Option = tuple[tuple[str, ...], dict]

#: flags several commands share: name -> (flags, argparse kwargs)
_SHARED: dict[str, Option] = {
    "scale": (("--scale",), dict(
        type=float, default=1.0,
        help="workload scale factor (default 1.0 = 96 MiB/client)",
    )),
    "kinds": (("--kinds",), dict(
        default=None, help="comma-separated NVM kinds (default: SLC,MLC,TLC,PCM)",
    )),
    "workers": (("--workers",), dict(
        type=int, default=1,
        help="matrix-cell worker processes (0 = auto-detect, default 1)",
    )),
    "backend": (("--backend",), dict(
        choices=("batch", "scalar"), default="batch",
        help="matrix-cell execution backend: the columnar batch kernel "
        "(default, bit-identical to scalar) or the frozen scalar reference",
    )),
    "cache_dir": (("--cache-dir",), dict(
        type=Path, default=None,
        help="persist matrix-cell results on disk (default: in-memory only)",
    )),
    "faults": (("--faults",), dict(
        action="store_true",
        help="inject the default seeded chaos regime into every matrix cell",
    )),
    "fault_seed": (("--fault-seed",), dict(
        type=int, default=None,
        help="fault-injection seed (default: $REPRO_FAULT_SEED or 0); "
        "implies --faults",
    )),
    "trace": (("--trace",), dict(
        type=Path, default=None, metavar="PATH",
        help="record an observability trace (JSON lines) to PATH",
    )),
    "prom": (("--prom",), dict(
        type=Path, default=None, metavar="PATH",
        help="write the sweep's metrics in Prometheus text format to PATH",
    )),
    "stats_dir": (("--stats-dir",), dict(
        type=Path, default=None, metavar="DIR",
        help="write a per-cell stats.csv under DIR",
    )),
    "out": (("-o", "--out"), dict(
        type=Path, default=None,
        help="directory to write the exhibit text file into",
    )),
}


def _shared(name: str, help_text: Optional[str] = None) -> Option:
    """A shared flag, optionally with the command's own help text."""
    flags, kwargs = _SHARED[name]
    return flags, kwargs if help_text is None else {**kwargs, "help": help_text}


def _parser(prog: str, description: str, options) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog, description=description)
    for flags, kwargs in options:
        parser.add_argument(*flags, **kwargs)
    return parser


def _names(text: Optional[str]) -> tuple[str, ...]:
    """A comma-separated flag value as a tuple of names."""
    return tuple(s.strip() for s in (text or "").split(",") if s.strip())


def _numbers(parser, flag: str, text: str) -> tuple[float, ...]:
    try:
        return tuple(float(s) for s in text.split(",") if s.strip())
    except ValueError:
        parser.error(f"{flag}: not numbers: {text!r}")


# -- the shared runtime --------------------------------------------------
def _open_cache(parser, args) -> ResultCache:
    try:
        return ResultCache(args.cache_dir)
    except NotADirectoryError as exc:
        parser.error(f"--cache-dir: {exc}")


def _fault_spec(args):
    """The chaos regime ``--faults``/``--fault-seed`` ask for, or None."""
    if not getattr(args, "faults", False) and getattr(args, "fault_seed", None) is None:
        return None
    from .faults import FaultSpec

    seed = args.fault_seed
    if seed is None:
        seed = int(os.environ.get("REPRO_FAULT_SEED", "0"))
    return FaultSpec.default_chaos(seed)


def _start_trace(args):
    if args.trace is None:
        return None
    from . import obs

    return obs.install(obs.Tracer())


def _finish_trace(tracer, path: Optional[Path]) -> None:
    if tracer is None:
        return
    from . import obs

    n_spans = obs.write_jsonl(tracer, path)
    obs.uninstall()
    print(
        f"[trace: {n_spans} spans -> {path}; "
        f"view with 'python -m repro obs report {path}']"
    )


def _engine(args, cache: ResultCache, faults=None, stats=None) -> MatrixEngine:
    return MatrixEngine(
        workers=None if args.workers == 0 else args.workers,
        cache=cache,
        faults=faults,
        backend=getattr(args, "backend", "batch"),
        stats=stats,
    )


def _run_subcommand(
    name: str,
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    spec,
    summary: Callable[[Any, float], str],
    **run_kwargs: Any,
) -> int:
    """Run one exhibit spec under the shared flags and print its footers.

    ``summary(report, elapsed)`` renders the exhibit's own footer line(s);
    ``run_kwargs`` are passed on to ``spec.run``.
    """
    cache = _open_cache(parser, args)
    faults = _fault_spec(args)
    tracer = _start_trace(args)
    engine = _engine(args, cache, faults)
    t0 = time.time()
    try:
        report = spec.run(engine, **run_kwargs)
    except (KeyError, ValueError) as exc:
        print(f"{name} sweep: {exc}", file=sys.stderr)
        return 2
    elapsed = time.time() - t0
    print(report.text)
    print(summary(report, elapsed))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{name}.txt").write_text(report.text + "\n")
    if args.prom is not None:
        from .obs.export import prometheus_text
        from .obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        report.publish(registry)
        args.prom.write_text(prometheus_text(registry))
        print(f"[metrics -> {args.prom}]")
    _finish_trace(tracer, args.trace)
    return 0


# -- subcommands ---------------------------------------------------------
def _serve_main(argv: list[str]) -> int:
    """``python -m repro serve``: run the simulation service."""
    import asyncio

    parser = _parser(
        "python -m repro serve",
        "Serve simulation jobs over a JSON-lines TCP endpoint.",
        (
            (("--host",), dict(default="127.0.0.1", help="bind address")),
            (("--port",), dict(
                type=int, default=8077, help="bind port (0 = ephemeral)",
            )),
            _shared(
                "workers",
                "engine worker processes per job (0 = auto-detect, default 1)",
            ),
            (("--queue-limit",), dict(
                type=int, default=64,
                help="admission queue bound; beyond it jobs are rejected "
                "(default 64)",
            )),
            (("--max-concurrency",), dict(
                type=int, default=4, help="jobs executing simultaneously (default 4)",
            )),
            _shared("cache_dir"),
            _shared("stats_dir", "write per-job/per-cell stats.csv under DIR"),
        ),
    )
    args = parser.parse_args(argv)

    from .experiments.parallel import detect_workers
    from .service import ServiceServer, SimulationService

    cache = _open_cache(parser, args)
    stats = None
    if args.stats_dir is not None:
        from .obs import CsvStatsRecorder

        stats = CsvStatsRecorder(args.stats_dir)

    async def _run() -> None:
        service = SimulationService(
            workers_per_job=detect_workers() if args.workers == 0 else args.workers,
            cache=cache,
            queue_limit=args.queue_limit,
            max_concurrency=args.max_concurrency,
            stats=stats,
        )
        server = ServiceServer(service, args.host, args.port)
        host, port = await server.start()
        print(
            f"repro service on {host}:{port} "
            f"(queue={args.queue_limit}, concurrency={args.max_concurrency}, "
            f"workers/job={service.executor.workers_per_job})",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print("draining in-flight jobs...", flush=True)
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _lifetime_main(argv: list[str]) -> int:
    """``python -m repro lifetime``: the aged-device capacity sweep."""
    from .experiments.lifetime import LIFETIME_KINDS, LIFETIME_LABELS
    from .lifetime import DEFAULT_AGES
    from .service.jobs import LifetimeJob

    parser = _parser(
        "python -m repro lifetime",
        "Sweep config x NVM kind x device age: bandwidth, "
        "p99 latency, write amplification and wear spread on devices "
        "fast-forwarded to a fraction of rated lifetime.",
        (
            _shared("scale"),
            (("--labels",), dict(
                default=None,
                help="comma-separated config labels "
                "(default: device sweep + ION-GPFS)",
            )),
            _shared("kinds"),
            (("--ages",), dict(
                default=None,
                help="comma-separated lifetime fractions in [0,1) "
                "(default: 0,0.5,0.9)",
            )),
            (("--policy",), dict(
                choices=("none", "dynamic", "static"), default="dynamic",
                help="wear-leveling policy (default dynamic)",
            )),
            (("--workload",), dict(
                choices=("eigensolver", "checkpoint"), default="eigensolver",
                help="request stream: the read-dominated eigensolver sweep "
                "(default) or the write-heavy double-buffered checkpoint "
                "stream that separates wear-leveling policies at exhibit scale",
            )),
            _shared(
                "workers", "sweep-cell worker processes (0 = auto-detect, default 1)"
            ),
            _shared(
                "cache_dir",
                "persist sweep-cell results on disk (default: in-memory only)",
            ),
            _shared(
                "faults", "overlay the default chaos regime under the age-coupled rates"
            ),
            _shared("fault_seed"),
            _shared("trace"),
            _shared("prom"),
            _shared("out"),
        ),
    )
    args = parser.parse_args(argv)
    spec = LifetimeJob(
        workload=_workload(args.scale, stream=args.workload),
        labels=_names(args.labels) if args.labels else LIFETIME_LABELS,
        kinds=_names(args.kinds) if args.kinds else LIFETIME_KINDS,
        ages=_numbers(parser, "--ages", args.ages) if args.ages else DEFAULT_AGES,
        wear_policy=args.policy,
    )
    return _run_subcommand(
        "lifetime", parser, args, spec,
        lambda report, elapsed: (
            f"[lifetime: {len(report.results)} cells, {elapsed:.1f}s]"
        ),
    )


def _netfault_main(argv: list[str]) -> int:
    """``python -m repro netfault``: the lossy-fabric exhibit + replay."""
    from .service.jobs import NetfaultJob

    parser = _parser(
        "python -m repro netfault",
        "Sweep packet-loss rate x config x NVM kind over the "
        "packetized go-back-N fabric and re-plot the CNL-vs-ION gap; or "
        "replay a recorded job trace against the simulation service.",
        (
            (("--loss-rates",), dict(
                default="0,0.01,0.05,0.2",
                help="comma-separated per-packet loss rates in [0,1] "
                "(default 0,0.01,0.05,0.2)",
            )),
            (("--labels",), dict(
                default=None,
                help="comma-separated config labels (default: all Table-2 rows)",
            )),
            _shared("kinds"),
            _shared("scale"),
            _shared("workers"),
            _shared("backend", "healthy-matrix backend (bit-identical either way)"),
            _shared("cache_dir", "persist healthy matrix cells on disk"),
            (("--net-seed",), dict(
                type=int, default=0,
                help="per-packet loss-oracle seed (default 0)",
            )),
            (("--mtu",), dict(
                type=int, default=4096,
                help="frame payload size in bytes (default 4096)",
            )),
            _shared("stats_dir", "write the per-packet net_stats.csv under DIR"),
            _shared("trace"),
            _shared("prom"),
            _shared("out"),
            (("--replay",), dict(
                type=Path, default=None, metavar="TRACE",
                help="replay a recorded JSONL job trace (jobs with "
                "arrival_offset_s) against an in-process service instead "
                "of sweeping loss rates",
            )),
            (("--speed",), dict(
                type=float, default=1.0,
                help="replay clock multiplier (2 = twice as fast, 0 = all "
                "at once; default 1)",
            )),
        ),
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        from .netfault.replay import run_replay
        from .service.jobs import JobValidationError

        try:
            replayed = run_replay(
                args.replay,
                workers=max(1, args.workers),
                speed=args.speed,
                cache_dir=args.cache_dir,
            )
        except (OSError, JobValidationError) as exc:
            print(f"netfault replay: {exc}", file=sys.stderr)
            return 2
        print(replayed.text())
        return 0 if replayed.failed == 0 else 1

    from .netfault.stats import NetStatsRecorder

    spec = NetfaultJob(
        workload=_workload(args.scale),
        loss_rates=_numbers(parser, "--loss-rates", args.loss_rates),
        labels=_names(args.labels),
        kinds=_names(args.kinds),
        net_seed=args.net_seed,
        mtu_bytes=args.mtu,
    )
    stats = NetStatsRecorder(args.stats_dir)

    def summary(report, elapsed: float) -> str:
        line = (
            f"[netfault: {len(report.results)} cells over "
            f"{len(report.loss_rates)} loss rates, {elapsed:.1f}s]"
        )
        if args.stats_dir is not None:
            s = stats.summary()
            line += (
                f"\n[net stats: {s['packets_sent']} packets "
                f"({s['packets_lost']} lost, {s['retransmits']} retransmits) "
                f"-> {args.stats_dir}/net_stats.csv]"
            )
        return line

    try:
        return _run_subcommand("netfault", parser, args, spec, summary, stats=stats)
    finally:
        stats.close()


#: exhibit subcommands with flags of their own (listed by ``list``)
_SUBCOMMANDS = {"lifetime": _lifetime_main, "netfault": _netfault_main}

#: tool subcommands: name -> module whose ``main(argv)`` runs it
_TOOLS = {"lint": ".lint.cli", "flow": ".flow.cli", "obs": ".obs.report"}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    if argv and argv[0] in _TOOLS:
        tool = importlib.import_module(_TOOLS[argv[0]], __package__)
        return tool.main(argv[1:])
    parser = _parser(
        "python -m repro",
        "Regenerate the paper's tables and figures from the simulation.",
        (
            (("exhibit",), dict(help="exhibit name, 'all', 'list', or 'serve'")),
            _shared("scale"),
            _shared("out", "directory to write exhibit text files into"),
            _shared("workers"),
            _shared("backend"),
            _shared("cache_dir"),
            _shared("faults"),
            _shared("fault_seed"),
            _shared(
                "trace",
                "record an observability trace (JSON lines) to PATH; "
                "inspect with 'python -m repro obs report PATH'",
            ),
            _shared("stats_dir"),
        ),
    )
    args = parser.parse_args(argv)

    cache = _open_cache(parser, args)
    faults = _fault_spec(args)
    tracer = _start_trace(args)
    stats = None
    if args.stats_dir is not None:
        from .obs import CsvStatsRecorder

        stats = CsvStatsRecorder(args.stats_dir)
    engine = _engine(args, cache, faults, stats)
    exhibits = _exhibits(args.scale, engine)
    if args.exhibit == "list":
        print("\n".join(exhibits))
        for name in _SUBCOMMANDS:
            print(f"{name}  (subcommand: python -m repro {name} --help)")
        return 0
    names = list(exhibits) if args.exhibit == "all" else [args.exhibit]
    unknown = [n for n in names if n not in exhibits]
    if unknown:
        print(f"unknown exhibit(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(exhibits)}", file=sys.stderr)
        return 2

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    for name in names:
        t0 = time.time()
        if tracer is not None:
            with tracer.wall_span("cli", name):
                text = exhibits[name]()
        else:
            text = exhibits[name]()
        elapsed = time.time() - t0
        print(text)
        print(f"[{name}: {elapsed:.1f}s]\n")
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(text + "\n")
    if engine.timings:
        cached = sum(1 for t in engine.timings if t.cached)
        print(
            f"[matrix engine: {len(engine.timings)} cells ({cached} cached), "
            f"{engine.total_seconds:.1f}s cell time, {engine.workers} workers]"
        )
        if engine.batch_stats["batch_cells"]:
            print(
                f"[batch kernel: {engine.batch_stats['batch_cells']} cells "
                f"columnar, {engine.batch_stats['fallback_cells']} scalar "
                f"fallbacks, {engine.batch_stats['batch_seconds']:.1f}s]"
            )
        cstats = engine.cache_stats()
        if cstats is not None and (cstats["hits"] or cstats["misses"]):
            print(
                f"[result cache: {cstats['hits']} hits "
                f"({cstats['memory_hits']} mem / {cstats['disk_hits']} disk), "
                f"{cstats['misses']} misses, {cstats['puts']} puts, "
                f"hit ratio {cstats['hit_ratio']:.0%}]"
            )
    if faults is not None:
        fs = engine.fault_stats
        print(
            f"[fault injection: seed {faults.seed}, "
            f"{fs['faults_injected']} device faults "
            f"({fs['device_retries']} retries), "
            f"{fs['worker_crashes']} worker crashes, "
            f"{fs['cell_timeouts']} cell timeouts, "
            f"{fs['cell_retries']} cells retried — all recovered]"
        )
    _finish_trace(tracer, args.trace)
    if stats is not None:
        s = stats.summary()
        stats.close()
        print(
            f"[stats: {s['cells']} cell rows ({s['cells_cached']} cached), "
            f"{s['jobs']} job rows -> {args.stats_dir}/stats.csv]"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
