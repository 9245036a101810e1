"""The service-mix load generator: an open loop over TCP.

One process, :data:`spec.CONNECTIONS` connections.  Arrivals are
Poisson at :data:`spec.OFFERED_JOBS_PER_S` jobs/s (see :func:`schedule`);
each is a hit on a cell warmed during set-up, a cold cell with a fresh
simulation seed, or a burst of :data:`spec.BURST_SIZE` identical cold
jobs due at the same instant.
The generator sends each job when it is due whatever the server is
doing, times it from its due time to its result, and records how late
it sent it.  A refused, failed or timed-out job is still an attempt: it
counts as a failure and as :data:`spec.JOB_TIMEOUT_S` of latency, which
is over the p99 limit.
"""

from __future__ import annotations

import asyncio
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import spec


def schedule(seed: int, part: int, jobs: int) -> tuple[list, list]:
    """(warm cells, [(due offset s, [(label, kind, sim seed), ...])]).

    The traffic shape is fixed per ``part``: the jobs come in exactly the
    shares of :data:`spec.MIX`, in one Poisson sample of arrival instants
    and hit/cold/burst order, scaled so the schedule spans exactly
    ``jobs / OFFERED_JOBS_PER_S`` seconds.  The seed picks what the jobs
    carry: the warm cells the hits cycle through, the order in which
    cold jobs cycle through all 52 cells, and their simulation seeds.
    Each ``part`` of a run has a shape of its own, so a run averages
    several.
    """
    from repro.experiments.configs import TABLE2_CONFIGS

    rng = random.Random(f"{seed}/{part}")
    shape = random.Random(f"shape/{part}")
    cells = [(c.label, k) for c in TABLE2_CONFIGS
             for k in ("SLC", "MLC", "TLC", "PCM")]
    warm = [(label, kind, seed) for label, kind in rng.sample(cells, spec.WARM_CELLS)]
    shares = dict(spec.MIX)
    bursts = round(shares["burst"] * jobs / spec.BURST_SIZE)
    colds = round(shares["cold"] * jobs)
    hits = jobs - colds - bursts * spec.BURST_SIZE
    what = ["hit"] * hits + ["cold"] * colds + ["burst"] * bursts
    shape.shuffle(what)
    gaps = [shape.expovariate(1.0) for _ in what]
    cold_cells = rng.sample(cells, len(cells))
    scale = jobs / spec.OFFERED_JOBS_PER_S / sum(gaps)
    plan, t, n_hit, n_cold = [], 0.0, 0, 0
    for gap, kind in zip(gaps, what):
        t += gap * scale
        if kind == "hit":
            batch = [warm[n_hit % len(warm)]]
            n_hit += 1
        else:
            label, cell_kind = cold_cells[n_cold % len(cold_cells)]
            n_cold += 1
            job = (label, cell_kind, rng.randrange(1 << 20, 1 << 30))
            batch = [job] * (spec.BURST_SIZE if kind == "burst" else 1)
        plan.append((t, batch))
    return warm, plan


def cell_job(label: str, kind: str, sim_seed: int):
    from repro.experiments.runner import Workload
    from repro.service.jobs import CellJob

    workload = Workload(panels=spec.SERVICE_PANELS,
                        panel_bytes=spec.SERVICE_PANEL_BYTES)
    return CellJob(label=label, kind=kind, seed=sim_seed, workload=workload)


async def drive(port: int, warm, plan, on_setup_end) -> dict:
    from repro.service.client import ServiceClient
    from repro.service.jobs import ServiceError

    clients = [await ServiceClient.connect("127.0.0.1", port)
               for _ in range(spec.CONNECTIONS)]
    try:
        await asyncio.gather(*(
            clients[i % len(clients)].submit(cell_job(*cell),
                                             timeout_s=spec.JOB_TIMEOUT_S)
            for i, cell in enumerate(warm)
        ))
        setup_end = time.monotonic()
        if not plan:
            return {"setup_end": setup_end}
        on_setup_end()

        latencies: list[float] = []
        late: list[float] = []
        failures: list[str] = []
        payloads: dict[str, list] = {}
        tasks = []
        done_at: list[float] = []

        async def one(client, job, due: float) -> None:
            late.append((time.monotonic() - due) * 1e3)
            try:
                result = await client.submit(
                    cell_job(*job), timeout_s=spec.JOB_TIMEOUT_S,
                    retry_on_disconnect=False,
                )
            except ServiceError as exc:
                failures.append(f"{'|'.join(map(str, job))}: {exc.code}")
                latencies.append(spec.JOB_TIMEOUT_S * 1e3)
                return
            now = time.monotonic()
            done_at.append(now)
            latencies.append((now - due) * 1e3)
            payloads.setdefault("|".join(map(str, job)), []).append(result["result"])

        start = time.monotonic() + 0.01
        n = 0
        for offset, jobs in plan:
            due = start + offset
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            for job in jobs:
                tasks.append(asyncio.create_task(one(clients[n % len(clients)], job, due)))
                n += 1
        await asyncio.gather(*tasks)
        first_due = start + plan[0][0]
        wall = (max(done_at) if done_at else time.monotonic()) - first_due
    finally:
        for client in clients:
            await client.close()
    return {
        "setup_end": setup_end,
        "wall_s": wall,
        "latencies_ms": latencies,
        "gen_late_ms": late,
        "failures": failures,
        "payloads": payloads,
    }


def generate(seed: int, part: int, trace: bool, check: bool, jobs: int,
             spans_path: Path, setup_only: bool = False) -> dict:
    """One repetition: fresh server, pre-warm, the timed open loop."""
    here = Path(__file__).resolve().parent
    cmd = [sys.executable, str(here / "server.py"), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", str(spans_path)]
    server = subprocess.Popen(cmd, cwd=here.parent, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True)
    try:
        line = server.stdout.readline()
        if not line:
            raise SystemExit("service-mix server failed to start")
        port = json.loads(line)["port"]
        warm, plan = schedule(seed, part, jobs)

        def mark() -> None:
            server.stdin.write("mark\n")
            server.stdin.flush()

        run = asyncio.run(drive(port, warm, [] if setup_only else plan, mark))
        server.stdin.close()
        summary = json.loads(server.stdout.read().strip().splitlines()[-1])
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    if server.returncode != 0:
        raise SystemExit(f"service-mix server exited with {server.returncode}")
    if setup_only:
        return {"setup_end": run["setup_end"]}

    failures = list(run["failures"])
    outputs = {}
    for key, results in sorted(run["payloads"].items()):
        fields = [{k: v for k, v in r.items() if k != "backend"} for r in results]
        if any(f != fields[0] for f in fields[1:]):
            failures.append(f"{key}: identical jobs got different results")
        outputs[key] = fields[0]
    if check:
        import checks

        failures += checks.service_sample(outputs, seed)
    completed = len(run["latencies_ms"]) - len(run["failures"])
    out = {
        "setup_end": run["setup_end"],
        "wall_s": run["wall_s"],
        "ops": len(run["latencies_ms"]),
        "completed": completed,
        "op_seconds": [ms / 1e3 for ms in run["latencies_ms"]],
        "gen_late_ms": run["gen_late_ms"],
        "outputs": outputs,
        "check_failures": failures,
        "peak_rss_mb": summary["peak_rss_mb"],
        "cpu_s": summary["cpu_s"],
        "txns": summary["txns"],
        "server": {"status": summary["status"], "engine": summary["engine"]},
    }
    if trace:
        out["layers"] = summary["layers"]
    return out
