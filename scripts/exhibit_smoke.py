#!/usr/bin/env python3
"""CI smoke test of one exhibit, end to end, the way a user runs it.

Every exhibit runs a small slice through the CLI with ``--trace`` and
its export flags, renders the trace with ``python -m repro obs report``
requiring >= 95% of simulated time attributed to named layers, checks
the printed table, footers and written files, then runs its own
end-to-end check:

* ``figure7`` — the observability stack: per-cell ``stats.csv`` rows
  and the real TCP service's Prometheus ``{"op": "metrics"}`` scrape;
* ``lifetime`` — a one-config aged sweep (age 0 + age 0.9): the
  lifetime gauge families, and an aged row that really degrades;
* ``netfault`` — a two-rate loss sweep: the netfault/link families, a
  replay of the shipped sample job trace at speed 0, degradation
  monotone in the loss rate, and a saturating rate surfacing as a typed
  ``unreachable`` calibration, never a hang.

Exit code 0 on success; any failure raises and exits non-zero.

Usage:
    PYTHONPATH=src python scripts/exhibit_smoke.py EXHIBIT [--scale 0.2]
"""

from __future__ import annotations

import argparse
import asyncio
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MiB = 1 << 20


def run_cli(args: list[str]) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"exhibit_smoke: `repro {' '.join(args)}` failed")
    return proc.stdout


def expect(text: str, *needles: str) -> None:
    for needle in needles:
        assert needle in text, f"output lacks {needle!r}"


def traced_run(tmp: Path, scale: float, exhibit: str, *args: str):
    """The exhibit's CLI run with ``--trace``, then the obs report of
    that trace under the coverage gate: returns (stdout, report)."""
    trace = tmp / "trace.jsonl"
    out = run_cli(
        [exhibit, "--scale", str(scale), "--trace", str(trace), *args]
    )
    expect(out, "[trace:")
    report = run_cli(
        ["obs", "report", str(trace), "--require-coverage", "0.95"]
    )
    expect(report, "simulated time", "wall time")
    print(f"{exhibit}: CLI run + obs report + coverage gate OK")
    return out, report


# -- figure7: the observability stack --------------------------------------
#: series the service's Prometheus endpoint must expose after one job
SERVICE_SERIES = (
    "repro_service_completed",
    "repro_service_cache_hits",
    "repro_service_engine_cells",
    "repro_service_latency_p99_s",
)


def smoke_figure7(tmp: Path, scale: float) -> None:
    stats_dir = tmp / "stats"
    out, report = traced_run(
        tmp, scale, "figure7", "--stats-dir", str(stats_dir)
    )
    expect(out, "[stats:")
    expect(report, "cell")  # sim-domain layer rows
    assert any(layer in report for layer in ("cli", "engine", "scheduler")), (
        "wall-domain layer rows missing"
    )

    rows = list(csv.DictReader((stats_dir / "stats.csv").open()))
    cell_rows = [r for r in rows if r["event"] == "cell"]
    assert cell_rows, "stats.csv must have per-cell rows"
    assert all(r["label"] and r["kind"] for r in cell_rows)
    print(f"figure7: stats.csv OK ({len(cell_rows)} cell rows)")

    text = asyncio.run(scrape_service_metrics())
    assert text.strip(), "Prometheus exposition must be non-empty"
    expect(text, *SERVICE_SERIES, "# TYPE repro_service_completed counter")
    print(f"figure7: service Prometheus endpoint OK "
          f"({len(text.splitlines())} lines)")


async def scrape_service_metrics() -> str:
    """Run one job through the real TCP service, then scrape it."""
    from repro.experiments import Workload
    from repro.service import (
        CellJob,
        ServiceClient,
        ServiceServer,
        SimulationService,
    )

    service = SimulationService(queue_limit=8, max_concurrency=1)
    server = ServiceServer(service, "127.0.0.1", 0)
    host, port = await server.start()
    try:
        async with await ServiceClient.connect(host, port) as client:
            await client.submit(
                CellJob(
                    label="CNL-EXT4", kind="TLC",
                    workload=Workload(panels=2, panel_bytes=64 * 1024),
                    trace_id="obs-smoke",
                ).to_dict()
            )
            return await client.metrics()
    finally:
        await server.close()


# -- lifetime: the aged-device sweep ---------------------------------------
#: gauge families the sweep's Prometheus export must expose
LIFETIME_FAMILIES = (
    "repro_lifetime_bandwidth_mb",
    "repro_lifetime_p99_latency_ms",
    "repro_lifetime_waf",
    "repro_lifetime_wear_spread",
    "repro_lifetime_retired_blocks",
    "repro_lifetime_read_fault_p",
    "repro_lifetime_faults_injected",
)


def smoke_lifetime(tmp: Path, scale: float) -> None:
    prom = tmp / "lifetime.prom"
    out, report = traced_run(
        tmp, scale, "lifetime", "--labels", "CNL-UFS", "--kinds", "TLC",
        "--ages", "0,0.9", "--prom", str(prom), "-o", str(tmp),
    )
    expect(out, "Device lifetime sweep", "[lifetime: 2 cells")
    expect(report, "cell")
    assert (tmp / "lifetime.txt").exists(), "-o must write lifetime.txt"
    expect(prom.read_text(), *LIFETIME_FAMILIES, 'age="0.90"', 'policy="dynamic"')
    print("lifetime: Prometheus export OK")

    from repro.experiments.runner import Workload
    from repro.lifetime import WearPolicy, run_lifetime_cell

    workload = Workload(
        panels=max(2, int(round(12 * scale))), panel_bytes=8 * MiB
    )
    fresh, aged = (
        run_lifetime_cell(
            "CNL-UFS", "TLC", age, policy=WearPolicy(kind="dynamic"),
            workload=workload,
        )
        for age in (0.0, 0.9)
    )
    assert fresh.read_fault_p == 0.0 and fresh.retired_blocks == 0
    assert aged.read_fault_p > 0.0, "aged device must see ECC retries"
    assert aged.retired_blocks > 0, "90% age must retire blocks"
    assert aged.p99_latency_ms > fresh.p99_latency_ms, (
        "retries must show up in tail latency"
    )
    print(f"lifetime: degradation OK (retired={aged.retired_blocks}, "
          f"p99 {fresh.p99_latency_ms:.3f} -> {aged.p99_latency_ms:.3f} ms)")


# -- netfault: the lossy-fabric sweep --------------------------------------
#: families the sweep's Prometheus export must expose
NETFAULT_FAMILIES = (
    "repro_netfault_delivered_factor",
    "repro_netfault_unreachable",
    "repro_netfault_bandwidth_mb",
    "repro_netfault_link_packets_sent",
    "repro_netfault_link_packets_lost",
    "repro_netfault_link_retransmits",
)


def smoke_netfault(tmp: Path, scale: float) -> None:
    prom = tmp / "netfault.prom"
    stats_csv = tmp / "stats" / "net_stats.csv"
    out, report = traced_run(
        tmp, scale, "netfault", "--loss-rates", "0,0.05",
        "--labels", "CNL-UFS,ION-GPFS", "--kinds", "SLC",
        "--prom", str(prom), "--stats-dir", str(stats_csv.parent),
        "-o", str(tmp),
    )
    expect(out, "CNL vs ION under fabric degradation", "[netfault: 4 cells")
    expect(report, "net")
    assert (tmp / "netfault.txt").exists(), "-o must write netfault.txt"
    assert stats_csv.read_text().startswith("t_ns,link,"), "CSV header missing"
    expect(
        prom.read_text(), *NETFAULT_FAMILIES, 'loss_rate="0.05"',
        # the loss-0 row delivers the full healthy bandwidth
        'repro_netfault_delivered_factor{loss_rate="0"} 1.0',
    )
    print("netfault: Prometheus export OK")

    out = run_cli(
        ["netfault", "--replay", str(ROOT / "examples/trace_replay.jsonl"),
         "--speed", "0", "--cache-dir", str(tmp / "cache")]
    )
    expect(out, "trace replay: 5 jobs", "0 failed")
    print("netfault: trace replay OK")

    from repro.cluster.ion import IonServiceConfig
    from repro.netfault import calibrate_fabric

    cfg = IonServiceConfig(bytes_per_client=8 * MiB)
    factors = [
        calibrate_fabric(rate, cfg=cfg).delivered_factor
        for rate in (0.0, 0.05, 0.2)
    ]
    assert factors[0] == 1.0, "loss 0 must be bit-identical to healthy"
    assert factors == sorted(factors, reverse=True), (
        f"delivered factor must be monotone in loss rate: {factors}"
    )
    assert factors[1] < 1.0, "5% loss must cost delivered bandwidth"

    saturated = calibrate_fabric(0.98, cfg=cfg)
    assert saturated.unreachable, (
        "a saturating loss rate must surface as typed unreachability"
    )
    assert saturated.delivered_factor == 0.0
    print(f"netfault: degradation OK (factors={factors}, "
          "saturated -> unreachable)")


SMOKES = {
    "figure7": smoke_figure7,
    "lifetime": smoke_lifetime,
    "netfault": smoke_netfault,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("exhibit", choices=sorted(SMOKES))
    parser.add_argument("--scale", type=float, default=0.2,
                        help="workload scale for the CLI slice (default 0.2)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix=f"{args.exhibit}-smoke-") as tmp:
        SMOKES[args.exhibit](Path(tmp), args.scale)
    print(f"exhibit_smoke: {args.exhibit}: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
