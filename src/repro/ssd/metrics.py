"""Evaluation metrics over a transaction log.

Implements every quantity the paper's evaluation reports:

* **bandwidth achieved** (Figs 7a/8a): payload bytes over makespan, per
  client (the paper reports per-compute-node numbers),
* **bandwidth remaining** (Figs 7b/8b): what the media could still have
  delivered *under the observed access pattern* — we re-run the same
  transaction stream with no host/arrival constraints to find the
  pattern's media ceiling, then subtract what was achieved,
* **channel / package utilization** (Figs 9a/9b): the time-average
  fraction of channels (packages) with at least one transaction in
  flight, over the device-active window,
* **execution-time decomposition** (Figs 10a/10c): the six-way split
  into non-overlapped DMA, flash-bus activation, channel activation,
  cell contention, channel contention and cell activation.  Bus and
  cell categories use exclusive interval measures per channel (a bus
  beat hidden behind a concurrent cell operation is "free"); the two
  contention categories split the remaining in-flight-but-idle time in
  proportion to the summed per-transaction waits,
* **parallelism decomposition** (Figs 10b/10d): PAL1-PAL4 class per
  block request, weighted by bytes.

There is one metrics pass: :func:`compute_metrics` is a width-1 call of
the stacked segmented pass in :mod:`repro.batch.metrics`, which the
batch backend runs over many cells at once.  The per-channel /
per-request reference it is tested against lives in
``tests/oracle/metrics.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..interconnect.host import HostPath
from ..interconnect.unconstrained import INFINITE_BUS, INFINITE_HOST
from ..nvm.bus import BusSpec
from ..nvm.kinds import NVMKind
from .geometry import Geometry
from .scheduler import TransactionScheduler, TxnLog

__all__ = ["RunMetrics", "compute_metrics", "media_pattern_peak"]

BREAKDOWN_KEYS = (
    "non_overlapped_dma",
    "flash_bus",
    "channel_bus",
    "cell_contention",
    "channel_contention",
    "cell",
)

PAL_KEYS = ("PAL1", "PAL2", "PAL3", "PAL4")


@dataclass
class RunMetrics:
    """All paper metrics for one configuration run."""

    payload_bytes: int
    makespan_ns: int
    bandwidth_bytes_per_sec: float
    client_bandwidth: dict[int, float] = field(default_factory=dict)
    pattern_peak_bytes_per_sec: float = 0.0
    remaining_bytes_per_sec: float = 0.0
    channel_utilization: float = 0.0
    package_utilization: float = 0.0
    breakdown: dict[str, float] = field(default_factory=dict)
    parallelism: dict[str, float] = field(default_factory=dict)
    n_txns: int = 0
    n_requests: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    overhead_bytes: int = 0  # journal + metadata traffic

    @property
    def bandwidth_mb(self) -> float:
        return self.bandwidth_bytes_per_sec / 1e6

    @property
    def remaining_mb(self) -> float:
        return self.remaining_bytes_per_sec / 1e6

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.bandwidth_mb:8.1f} MB/s achieved, "
            f"{self.remaining_mb:8.1f} MB/s remaining, "
            f"chan {self.channel_utilization*100:5.1f}%, "
            f"pkg {self.package_utilization*100:5.1f}%"
        )


def _client_bandwidth(log: TxnLog) -> dict[int, float]:
    """Per-client payload bandwidth (data transactions only)."""
    out: dict[int, float] = {}
    clients = log["client"]
    data_mask = log["kind_code"] == 0
    for c in np.unique(clients):
        m = (clients == c) & data_mask
        if not np.any(m):
            continue
        nbytes = int(log["nbytes"][m].sum())
        span = int(log["done"][m].max() - log["arrival"][m].min())
        out[int(c)] = nbytes * 1e9 / span if span > 0 else 0.0
    return out


def _pattern_peak(log: TxnLog, geom: Geometry, kind: NVMKind) -> float:
    """Media ceiling of the observed transaction pattern (bytes/sec).

    Re-schedules the identical transaction stream with all arrivals at
    zero and the unconstrained interface
    (:mod:`repro.interconnect.unconstrained`), so only the cell-level
    media resources constrain it.  The log's own int64 columns go
    through the scheduler's vectorized pre-pass and recurrence.
    """
    if len(log) == 0:
        return 0.0
    sched = TransactionScheduler(geom, INFINITE_BUS, INFINITE_HOST, kind=kind)
    cols = sched._prepass(
        log["op"], log["flat"], log["nbytes"], log["group"], log["pib"]
    )
    end = sched._schedule_arrays(0, 0, 0, "data", *cols)
    payload = int(log["nbytes"][log["kind_code"] == 0].sum())
    return payload * 1e9 / end if end > 0 else 0.0


def media_pattern_peak(
    log: TxnLog, geom: Geometry, bus: BusSpec, kind: NVMKind
) -> float:
    """Media ceiling of the observed transaction pattern (bytes/sec).

    This is the NVM-media headroom the paper's "bandwidth remaining"
    (Figs 7b/8b) measures against: media that "completes its requests
    faster and ends up idling" shows a large remainder.  ``bus`` is
    ignored: the replay runs on the unconstrained interface.
    """
    # a name of its own so perfbench/tracing.py can time the scalar
    # peak apart from the batch one (pattern_peak_from_log)
    return _pattern_peak(log, geom, kind)


def compute_metrics(
    log: TxnLog,
    geom: Geometry,
    bus: BusSpec,
    kind: NVMKind,
    host: HostPath | None = None,
) -> RunMetrics:
    """Derive every paper metric from a finished transaction log.

    A width-1 call of the stacked pass in :mod:`repro.batch.metrics`.
    """
    from ..batch.metrics import stacked_metrics

    peak = media_pattern_peak(log, geom, bus, kind)
    return stacked_metrics([(log, geom)], [peak])[0]
