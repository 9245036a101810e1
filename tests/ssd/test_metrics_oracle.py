"""``compute_metrics`` against the per-resource reference pass, exactly.

:mod:`tests.oracle.metrics` computes every :class:`RunMetrics` field with
per-channel, per-package and per-request loops over explicit interval
sets.  The production pass must return the same numbers to the last bit
(``==``, never approx) on three kinds of input:

* random transaction streams pushed through ``TransactionScheduler`` —
  small geometries, read/write/erase mixes, multi-plane groups, several
  clients and non-zero arrivals;
* every replay log of one aged checkpoint lifetime cell (writes, faults);
* a GC-heavy overwrite replay on a nearly full device (reads, writes and
  erases).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ssd.controller as controller
from repro.experiments.runner import Workload
from repro.interconnect import HostPath, bridged_pcie2
from repro.lifetime import WearPolicy, run_lifetime_cell
from repro.nvm import DDR800, KINDS, ONFI3_SDR400, SLC
from repro.ssd import (
    CommandGroup,
    DeviceCommand,
    Geometry,
    OpCode,
    PosixRequest,
    SSDevice,
    TransactionScheduler,
    compute_metrics,
)
from repro.ssd.ftl import Txn
from tests.oracle import metrics as oracle

KiB = 1024
MiB = 1024 * KiB
LABELS = ("data", "journal", "metadata")


def assert_same_metrics(log, geom, bus, kind, host):
    got = compute_metrics(log, geom, bus, kind, host)
    ref = oracle.compute_metrics(log, geom, bus, kind, host)
    for f in dataclasses.fields(ref):
        a, b = getattr(ref, f.name), getattr(got, f.name)
        assert a == b, f"RunMetrics.{f.name}: oracle {a!r} != {b!r}"


@st.composite
def scheduled_logs(draw):
    """A random multi-client stream scheduled on a tiny random device."""
    kind = draw(st.sampled_from(KINDS))
    geom = Geometry(
        kind=kind,
        channels=draw(st.integers(1, 3)),
        packages_per_channel=draw(st.integers(1, 2)),
        dies_per_package=draw(st.integers(1, 2)),
        planes_per_die=draw(st.integers(1, 2)),
        blocks_per_plane=4,
    )
    bus = draw(st.sampled_from([ONFI3_SDR400, DDR800]))
    host = HostPath(
        name="h",
        bytes_per_sec=draw(st.sampled_from([5e7, 1e9, 1e12])),
        per_request_ns=0,
    )
    sched = TransactionScheduler(geom, bus, host)
    group_id = 0
    for req_id in range(draw(st.integers(1, 8))):
        txns = []
        for _ in range(draw(st.integers(1, 6))):
            op = draw(st.sampled_from([OpCode.READ, OpCode.WRITE, OpCode.ERASE]))
            flat = draw(st.integers(0, geom.total_pages - 1))
            pib = (flat // geom.plane_units) % geom.pages_per_block
            # a multi-plane group: same op on consecutive plane units
            width = draw(st.integers(1, geom.planes_per_die))
            group = group_id if width > 1 else -1
            group_id += width > 1
            for w in range(width):
                nbytes = draw(st.integers(1, geom.page_bytes))
                txns.append(Txn(op, flat - flat % width + w, nbytes, group, pib))
        sched.submit(
            txns,
            arrival=draw(st.integers(0, 2_000_000)),
            req_id=req_id,
            client=draw(st.integers(0, 2)),
            kind_label=draw(st.sampled_from(LABELS)),
        )
    return sched.finish(), geom, bus, kind, host


@given(scheduled_logs())
@settings(max_examples=50, deadline=None)
def test_random_streams_match_oracle(case):
    assert_same_metrics(*case)


@pytest.fixture
def captured_replays(monkeypatch):
    """Every (log, geom, bus, kind, host) a device replay measures."""
    seen = []
    measure = controller.compute_metrics

    def capture(log, geom, bus, kind, host=None):
        seen.append((log, geom, bus, kind, host))
        return measure(log, geom, bus, kind, host)

    monkeypatch.setattr(controller, "compute_metrics", capture)
    return seen


def test_aged_checkpoint_cell_matches_oracle(captured_replays):
    workload = Workload(panels=2, panel_bytes=256 * KiB, iterations=3,
                        stream="checkpoint")
    cell = run_lifetime_cell("CNL-EXT4", "MLC", 0.9,
                             policy=WearPolicy("dynamic"),
                             workload=workload, seed=7)
    assert cell.faults_injected > 0
    assert captured_replays
    for replay_args in captured_replays:
        assert_same_metrics(*replay_args)


def test_gc_heavy_overwrite_matches_oracle(captured_replays):
    geom = Geometry(kind=SLC, channels=2, packages_per_channel=2,
                    dies_per_package=2, planes_per_die=2, blocks_per_plane=8)
    logical = int(geom.capacity_bytes * 0.88 * 0.95)
    device = SSDevice(geometry=geom, bus=ONFI3_SDR400, host=bridged_pcie2(8),
                      logical_bytes=logical, overprovision=0.12)
    device.preload(logical)  # start full: every overwrite feeds GC
    rng = np.random.default_rng(3)
    chunk = 64 * KiB
    groups = []
    for _ in range(MiB // chunk):
        off = int(rng.integers(0, logical // chunk)) * chunk
        groups.append(CommandGroup(posix=PosixRequest("write", 0, off, chunk),
                                   commands=[DeviceCommand("write", off, chunk)]))
    device.run(groups, posix_window=4)
    assert device.ftl.stats["gc_runs"] > 0
    (log, *rest), = captured_replays
    ops = log["op"]
    assert all((ops == op).any() for op in (OpCode.READ, OpCode.WRITE, OpCode.ERASE))
    assert_same_metrics(log, *rest)
