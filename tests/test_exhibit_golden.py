"""Golden outputs of every exhibit entry point.

Each exhibit reaches users through four doors: the ``python -m repro``
CLI (stdout, ``--help``, the Prometheus export), the service's result
payloads, the job specs' wire dicts and coalescing keys, and the
result-cache keys.  This module pins all of them byte for byte (key
order included) against files under ``tests/golden/exhibits/``, so a
refactor of the plumbing behind them cannot change what a user sees.
Timing footers (``[...: 1.2s]``) and temporary paths are masked
before comparison.

Regenerate the files (only when an output is meant to change) with::

    PYTHONPATH=src python tests/test_exhibit_golden.py --update
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.experiments import MatrixEngine, ResultCache, Workload
from repro.experiments.cache import cell_key, lifetime_key, peak_key
from repro.faults import FaultSpec
from repro.lifetime.aging import AgingSpec
from repro.lifetime.wear import WearPolicy
from repro.service.executor import execute_job
from repro.service.jobs import (
    CellJob,
    FigureJob,
    HeadlineJob,
    LifetimeJob,
    MatrixJob,
    NetfaultJob,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "exhibits"
MiB = 1024 * 1024
TINY = Workload(panels=2, panel_bytes=256 * 1024)
#: the service payload workload: 2 panels x 2 MiB
PAYLOAD_WORKLOAD = Workload(panels=2, panel_bytes=2 * MiB)

_TIMING = re.compile(r"\d+\.\d+s\b")

#: (golden name, argv); ``{tmp}`` is a scratch directory
CLI_CASES = {
    "cli_list": ["list"],
    "cli_headline": ["headline", "--scale", "0.2"],
    "cli_lifetime": [
        "lifetime", "--scale", "0.2", "--labels", "CNL-UFS",
        "--kinds", "TLC", "--ages", "0,0.9",
        "--prom", "{tmp}/lifetime.prom", "-o", "{tmp}",
    ],
    "cli_netfault": [
        "netfault", "--scale", "0.2", "--loss-rates", "0,0.05",
        "--labels", "CNL-UFS,ION-GPFS", "--kinds", "SLC",
        "--stats-dir", "{tmp}/stats", "--prom", "{tmp}/netfault.prom",
    ],
}

#: Prometheus files the CLI cases write, compared after their stdout
PROM_FILES = {
    "cli_lifetime": "lifetime.prom",
    "cli_netfault": "netfault.prom",
}

HELP_CASES = ("lifetime", "netfault")


def _specs() -> dict:
    """Named job specs covering every type, default and non-default."""
    return {
        "cell": CellJob(label="CNL-UFS", kind="SLC", workload=TINY, seed=7),
        "cell_scheduled": CellJob(
            label="ION-GPFS", kind="PCM", workload=TINY, with_remaining=False,
            priority=2, deadline_s=5.0, timeout_s=3.0, trace_id="t-1",
            arrival_offset_s=1.5,
        ),
        "matrix": MatrixJob(
            labels=("CNL-UFS", "ION-GPFS"), kinds=("SLC", "TLC"),
            workload=TINY,
        ),
        "figure": FigureJob(figure="figure8", workload=TINY, priority=-1),
        "headline": HeadlineJob(workload=TINY, with_remaining=False),
        "headline_default": HeadlineJob(),
        "lifetime": LifetimeJob(
            labels=("CNL-UFS",), kinds=("TLC", "MLC"), ages=(0, 0.9),
            wear_policy="static",
            workload=Workload(panels=2, panel_bytes=256 * 1024,
                              iterations=4, stream="checkpoint"),
        ),
        "lifetime_default": LifetimeJob(labels=("CNL-UFS",), kinds=("SLC",)),
        "netfault": NetfaultJob(
            loss_rates=(0, 0.05), labels=("CNL-UFS", "ION-GPFS"),
            kinds=("SLC",), net_seed=3, mtu_bytes=2048, workload=TINY,
        ),
        "netfault_default": NetfaultJob(trace_id="replay-1"),
    }


def _payload_specs() -> dict:
    w = PAYLOAD_WORKLOAD
    return {
        "cell": CellJob(label="CNL-UFS", kind="TLC", workload=w),
        "matrix": MatrixJob(
            labels=("CNL-UFS", "ION-GPFS"), kinds=("SLC", "TLC"), workload=w
        ),
        "figure": FigureJob(figure="figure7", workload=w),
        "headline": HeadlineJob(workload=w),
        "lifetime": LifetimeJob(
            labels=("CNL-UFS",), kinds=("TLC",), ages=(0.0, 0.9), workload=w
        ),
        "netfault": NetfaultJob(
            loss_rates=(0.0, 0.05), labels=("CNL-UFS", "ION-GPFS"),
            kinds=("SLC",), workload=w,
        ),
    }


def _cache_keys() -> dict:
    chaos = FaultSpec.default_chaos(3)
    aged = AgingSpec(age_fraction=0.9, seed=1013)
    static = WearPolicy(kind="static")
    return {
        "cell": cell_key("CNL-UFS", "TLC", TINY, 7, True),
        "cell_no_remaining": cell_key("CNL-UFS", "TLC", TINY, 7, False),
        "cell_faults": cell_key("ION-GPFS", "SLC", TINY, 1013, True, chaos),
        "lifetime": lifetime_key("CNL-UFS", "TLC", TINY, 7, aged, static),
        "lifetime_faults": lifetime_key(
            "CNL-UFS", "MLC", TINY, 1013, AgingSpec(), WearPolicy(), chaos
        ),
        "peak": peak_key("CNL-UFS", "TLC", TINY, 7),
        "peak_checkpoint": peak_key(
            "ION-GPFS", "PCM", Workload(stream="checkpoint", iterations=4), 1013
        ),
    }


# -- producing the outputs ---------------------------------------------------
def _mask(text: str, tmp: str) -> str:
    text = text.replace(tmp, "<tmp>")
    return "\n".join(
        _TIMING.sub("N.Ns", line) if line.startswith("[") else line
        for line in text.split("\n")
    )


def _run_cli(argv: list[str], tmp: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main([a.replace("{tmp}", tmp) for a in argv])
        except SystemExit as exc:  # --help exits through argparse
            code = exc.code
    return code, out.getvalue()


def cli_output(name: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _run_cli(CLI_CASES[name], tmp)
        assert code == 0, out
        text = _mask(out, tmp)
        if name in PROM_FILES:
            text += "--- " + PROM_FILES[name] + "\n"
            text += (Path(tmp) / PROM_FILES[name]).read_text()
    return text


def help_output(sub: str) -> str:
    code, out = _run_cli([sub, "--help"], "")
    assert code == 0
    return out


def payload_output(job_type: str) -> str:
    spec = _payload_specs()[job_type]
    engine = MatrixEngine(workers=1, cache=ResultCache())
    return json.dumps(execute_job(spec, engine), indent=1) + "\n"


def jobs_output() -> str:
    return json.dumps(
        {
            name: {"to_dict": spec.to_dict(), "key": spec.key()}
            for name, spec in _specs().items()
        },
        indent=1,
    ) + "\n"


def cache_keys_output() -> str:
    return json.dumps(_cache_keys(), sort_keys=True, indent=1) + "\n"


def _all_outputs():
    """(golden file name, thunk producing its current content)."""
    for name in CLI_CASES:
        yield f"{name}.txt", lambda n=name: cli_output(n)
    for sub in HELP_CASES:
        yield f"help_{sub}.txt", lambda s=sub: help_output(s)
    for job_type in _payload_specs():
        yield f"payload_{job_type}.json", lambda j=job_type: payload_output(j)
    yield "jobs.json", jobs_output
    yield "cache_keys.json", cache_keys_output


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text()


# -- the tests ---------------------------------------------------------------
@pytest.fixture(autouse=True)
def _fixed_terminal(monkeypatch):
    # argparse wraps --help to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)


@pytest.mark.parametrize("name", list(CLI_CASES))
def test_cli_stdout(name):
    assert cli_output(name) == _golden(f"{name}.txt")


@pytest.mark.parametrize("sub", HELP_CASES)
def test_subcommand_help(sub):
    assert help_output(sub) == _golden(f"help_{sub}.txt")


@pytest.mark.parametrize("job_type", list(_payload_specs()))
def test_service_payload(job_type):
    assert payload_output(job_type) == _golden(f"payload_{job_type}.json")


def test_job_dicts_and_keys():
    assert jobs_output() == _golden("jobs.json")


def test_cache_keys():
    assert cache_keys_output() == _golden("cache_keys.json")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit("usage: test_exhibit_golden.py --update")
    import os

    os.environ["COLUMNS"] = "80"
    os.environ.pop("REPRO_FAULT_SEED", None)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for fname, produce in _all_outputs():
        (GOLDEN / fname).write_text(produce())
        print(f"wrote {GOLDEN / fname}")
