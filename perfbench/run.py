"""The repository benchmark.

    python3 perfbench/run.py --workload figures|checkpoint-aged|service-mix \
        --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh process (``rep.py``),
until ``--seconds`` have passed and at least ``spec.MIN_REPS`` ran, so
imports, trace generation and lazy set-up land in ``setup_s`` every
time.  service-mix instead splits ``OFFERED_JOBS_PER_S * seconds`` jobs
over ``spec.SERVICE_REPS`` fresh servers.  ``setup_s`` is the median of
``spec.SETUP_SAMPLES`` set-ups, topped up by processes that stop after
set-up.  Every repetition's outputs are checked (see ``checks.py`` and
``digests.json``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates traced and untraced repetitions and reports
the per-layer metrics, the tracing overhead, and fails when a layer
records nothing or named layers leave the timed region uncovered.

Prints a table of every metric with its unit, then, as the last line,
``{"correct", "attempted", "failed", "metrics"}`` as JSON.  Exits
non-zero without a result when the program cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import spec  # noqa: E402
from layers import percentile  # noqa: E402

#: one repetition may take this long before the run is abandoned
REP_TIMEOUT_S = 150


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def as_result(values: dict[str, float], section: str) -> dict:
    units = declared_units(section)
    if set(values) != set(units):
        raise SystemExit(f"reported metrics differ from BENCHMARK.json "
                         f"{section}: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def digest(outputs) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def digest_key(workload: str, seed: int, jobs: int, part: int) -> str:
    """Figures and checkpoint-aged repeat one seed's work exactly; each
    part of a service-mix run has a schedule of its own."""
    return f"{seed}/{jobs}/{part}" if workload == "service-mix" else str(seed)


def service_jobs(seconds: float) -> int:
    """Jobs per service-mix repetition for a run of ``seconds``."""
    return math.ceil(spec.OFFERED_JOBS_PER_S * seconds / spec.SERVICE_REPS)


def run_rep(workload: str, seed: int, trace: bool, check: bool,
            jobs: int, part: int, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--jobs", str(jobs), "--part", str(part)]
    if check:
        cmd.append("--check")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} repetition exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_latencies_ms(workload: str, reps: list[dict]) -> list[float]:
    """Per-operation times, pooled from the untraced repetitions.

    Jobs (service-mix) are independent samples, so they pool.  Cells
    (figures, checkpoint-aged) repeat identically across repetitions,
    so each cell contributes the median of its times.
    """
    if workload == "service-mix":
        return [s * 1e3 for r in reps for s in r["op_seconds"]]
    per_op = zip(*(r["op_seconds"] for r in reps))
    return [statistics.median(times) * 1e3 for times in per_op]


def end_to_end(workload: str, reps: list[dict],
               setups: list[float]) -> dict[str, float]:
    """The gated metrics.  figures and checkpoint-aged run one thread, so
    their time is the repetition's CPU time; service-mix's is its
    server's, and its throughput is per second of schedule."""
    med = statistics.median
    clock = "wall_s" if workload == "service-mix" else "cpu_s"
    return {
        "cpu_s": med(r["cpu_s"] for r in reps),
        "setup_s": med(setups),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "sim_txns_per_cpu_s": med(r["txns"] / r["cpu_s"] for r in reps),
        "jobs_per_s": med(r.get("completed", r["ops"]) / r[clock] for r in reps),
    }


def latency_ms(workload: str, reps: list[dict]) -> dict[str, float]:
    """Operation time statistics, printed but not gated (see README)."""
    lat = op_latencies_ms(workload, reps)
    return {"p50_ms": percentile(lat, 0.50), "mean_ms": statistics.fmean(lat),
            "p95_ms": percentile(lat, 0.95), "p99_ms": percentile(lat, 0.99)}


def per_layer(workload: str, traced: list[dict], untraced: list[dict]) -> dict:
    rows = [layers.metrics(r["layers"]) for r in traced]
    out = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    if workload == "service-mix":
        # the server's own counters, from the untraced repetitions too
        status = [r["server"]["status"] for r in traced + untraced]
        engine = [r["server"]["engine"] for r in traced + untraced]
        out["service.coalesce_ratio"] = statistics.median(
            s["coalesced"] / s["submitted"] for s in status)
        out["service.cells_computed"] = statistics.median(
            e["cells"] - e["cached_cells"] for e in engine)
        out["service.rejected"] = sum(s["rejected_total"] for s in status)
        late = [ms for r in untraced for ms in r["gen_late_ms"]]
    else:
        out["service.coalesce_ratio"] = 0.0
        out["service.cells_computed"] = 0
        out["service.rejected"] = 0
        late = []
    out["service.gen_late_ms"] = percentile(late, 0.99)
    # service-mix wall time is fixed by its schedule and its server's CPU
    # time leaves out the generator; its overhead shows in job latency
    if workload == "service-mix":
        traced_s = latency_ms(workload, traced)["p50_ms"]
        plain_s = latency_ms(workload, untraced)["p50_ms"]
    else:
        traced_s = statistics.median(r["cpu_s"] for r in traced)
        plain_s = statistics.median(r["cpu_s"] for r in untraced)
    out["obs.trace_overhead"] = traced_s / plain_s - 1.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload, seed, trace = args.workload, args.seed, bool(args.trace)
    service = workload == "service-mix"
    jobs = service_jobs(args.seconds) if service else 0
    known = json.loads((HERE / "digests.json").read_text()).get(workload, {})

    reps: list[tuple[bool, dict, str | None]] = []
    t0 = time.monotonic()
    while True:
        n_traced = sum(t for t, _, _ in reps)
        n_plain = len(reps) - n_traced
        if service:
            enough = len(reps) >= spec.SERVICE_REPS
        else:
            enough = (time.monotonic() - t0 >= args.seconds
                      and (min(n_traced, n_plain) >= 1 if trace
                           else n_plain >= spec.MIN_REPS))
        if enough:
            break
        traced = trace and n_traced <= n_plain
        # a traced repetition and the untraced one after it share a part
        part = n_traced if traced else n_plain
        expected = known.get(digest_key(workload, seed, jobs, part))
        check = expected is None and (service or not reps)
        out = run_rep(workload, seed, traced, check, jobs, part)
        reps.append((traced, out, expected))

    attempted = failed = 0
    problems: list[str] = []
    for _traced, r, expected in reps:
        attempted += r["ops"]
        failures = list(r["check_failures"])
        if expected is not None and digest(r["outputs"]) != expected:
            failures = [f"output digest {digest(r['outputs'])} != committed {expected}"]
            failed += r["ops"]
        else:
            failed += min(len(failures), r["ops"])
        problems += failures

    plain = [r for t, r, _ in reps if not t]
    traced_reps = [r for t, r, _ in reps if t]
    setups = [r["setup_s"] for r in plain]
    while not trace and len(setups) < spec.SETUP_SAMPLES:
        setups.append(run_rep(workload, seed, False, False, jobs, 0,
                              setup_only=True)["setup_s"])
    metrics = end_to_end(workload, plain, setups)
    if trace:
        for r in traced_reps:
            problems += layers.coverage_failures(workload, r["layers"])
        report = per_layer(workload, traced_reps, plain)
    for msg in problems[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    print_table(workload, seed, reps, metrics, attempted, failed)
    if trace:
        result = as_result(report, "per_layer")
        for key, m in result.items():
            print(f"  {key:<28} {m['value']:>16.6g} {m['unit']}")
    else:
        result = as_result(metrics, "end_to_end")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


def print_table(workload, seed, reps, metrics, attempted, failed) -> None:
    plain = [r for t, r, _ in reps if not t]
    pinned = sum(e is not None for _, _, e in reps)
    print(f"workload {workload}, seed {seed}: {len(reps)} fresh-process "
          f"repetitions ({len(plain)} untraced), {pinned} checked against a "
          "committed digest, the rest against independent re-runs")
    units = declared_units("end_to_end")
    for key, value in metrics.items():
        print(f"  {key:<28} {value:>16.6g} {units[key]}")
    wall = statistics.median(r["wall_s"] for r in plain)
    print(f"  {'wall_s':<28} {wall:>16.6g} s  (not gated)")
    lat = latency_ms(workload, plain)
    n_ops = len(op_latencies_ms(workload, plain))
    for key, value in lat.items():
        print(f"  {key:<28} {value:>16.6g} ms  (not gated; over {n_ops} operations)")
    print(f"  {'error_rate':<28} {failed / max(attempted, 1):>16.6g} ratio"
          f"  ({failed} of {attempted} operations)")
    if workload == "figures":
        err = statistics.median(r["headline_err"] for r in plain)
        print(f"  {'headline_err':<28} {err:>16.6g} ratio  (model vs the "
              f"paper's published {spec.PAPER_HEADLINE_RATIO}x, not hardware)")
    if workload == "service-mix":
        late = [ms for r in plain for ms in r["gen_late_ms"]]
        print(f"  {'service.gen_late_ms':<28} p50 {percentile(late, .5):.3f} "
              f"p99 {percentile(late, .99):.3f} max {max(late):.3f} ms")
        verdict = "met" if lat["p99_ms"] <= spec.P99_LIMIT_MS else "MISSED"
        print(f"  offered {spec.OFFERED_JOBS_PER_S:g} jobs/s; p99 limit "
              f"{spec.P99_LIMIT_MS:g} ms {verdict}")


if __name__ == "__main__":
    sys.exit(main())
