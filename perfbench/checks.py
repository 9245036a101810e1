"""Output checks for seeds that have no committed digest.

A committed digest (``digests.json``) pins every simulated field.  For
any other seed these checks compare a seed-chosen sample of the
benchmark's outputs against an independent in-process computation on
the scalar path, which the batch kernel must match field for field.
Each returns a list of failure descriptions (empty when all agree).
"""

from __future__ import annotations

import json
import random


def _scalar_fields(label: str, kind: str, workload, seed: int) -> dict:
    from rep import cell_fields
    from repro.experiments.runner import run_config

    result = run_config(label, kind, workload, seed, with_remaining=True)
    # the service's payloads went over JSON; compare like with like
    return json.loads(json.dumps(cell_fields(result)))


def figures_scalar_sample(cells: dict, workload, seed: int, n: int) -> list[str]:
    """Re-run ``n`` seed-chosen cells on the scalar backend."""
    from rep import cell_fields

    failures = []
    for label, kind in random.Random(seed).sample(sorted(cells), n):
        got = json.loads(json.dumps(cell_fields(cells[(label, kind)])))
        if got != _scalar_fields(label, kind, workload, seed):
            failures.append(f"{label}|{kind}: batch result differs from scalar")
    return failures


def service_sample(outputs: dict, seed: int, n: int = 3) -> list[str]:
    """Check ``n`` seed-chosen service payloads against ``run_config``."""
    from service_mix import cell_job

    failures = []
    keys = sorted(outputs)
    for key in random.Random(seed).sample(keys, min(n, len(keys))):
        label, kind, sim_seed = key.split("|")
        job = cell_job(label, kind, int(sim_seed))
        if outputs[key] != _scalar_fields(label, kind, job.workload, job.seed):
            failures.append(f"{key}: service payload differs from run_config")
    return failures
