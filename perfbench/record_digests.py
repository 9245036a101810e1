"""Record the committed output digests in ``digests.json``.

    python3 perfbench/record_digests.py --workload figures --seeds 0-24

Runs one untraced repetition per seed, with the checks that stand in
for a digest (``checks.py``), and stores the digest of every simulated
output field under that seed (service-mix: under
``seed/jobs/part`` for each part of the job count a run of ``BENCHMARK.json``'s
``run_seconds`` offers).  Record digests only from a tree whose outputs
are known to be right: they are what every later run is checked
against.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seeds", required=True, type=seeds, help="e.g. 0-24")
    args = ap.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    jobs = run.service_jobs(seconds) if args.workload == "service-mix" else 0
    path = HERE / "digests.json"
    parts = spec.SERVICE_REPS if args.workload == "service-mix" else 1
    for seed in args.seeds:
        for part in range(parts):
            out = run.run_rep(args.workload, seed, trace=False, check=True,
                              jobs=jobs, part=part)
            if out["check_failures"]:
                raise SystemExit(f"seed {seed}: {out['check_failures'][:3]}")
            known = json.loads(path.read_text())
            key = run.digest_key(args.workload, seed, jobs, part)
            known.setdefault(args.workload, {})[key] = run.digest(out["outputs"])
            path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
            print(f"{args.workload} {key}: {known[args.workload][key]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
