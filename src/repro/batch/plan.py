"""Plan a matrix cell into columnar transactions (cell x txn layout).

A *plan* is everything about a cell's replay that does not depend on
time: the command stream the file system emits for the workload trace,
the page-level transactions each command translates to under the
pre-staged identity mapping, and every per-transaction quantity without
a cross-transaction dependency (address decode, latency-ladder cell
times, bus/host transfer times, multi-plane grouping and the
command-sharing discount).

``plan_cell`` builds one cell's plan — or raises
:class:`BatchUnsupported` if the cell needs anything the static
translation cannot express (writes, trims, cold reads, fault models,
non-FIFO queueing, geometries without plane pairs).  ``stack_plans``
then concatenates all planned cells into one stacked int64 block and
evaluates the shared arithmetic for the whole matrix in a single numpy
sweep; each plan receives per-cell views (``lanes``) that the columnar
scheduler slices per command at dispatch time.

Two lanes are materialized per cell from the same transaction columns:

* ``main`` — the configured bus/host/command-overhead constants,
* ``peak`` — the constants of the unconstrained interface
  (:mod:`repro.interconnect.unconstrained`: infinite bus and host, zero
  command overhead), reusing the plan instead of re-translating the
  identical deterministic stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.architecture import StoragePath
from ..experiments.configs import ExpConfig, config_by_label
from ..interconnect.unconstrained import INFINITE_BUS, INFINITE_HOST
from ..nvm.kinds import NVMKind, kind_by_name
from ..ssd.request import CommandGroup, DeviceCommand, OpCode
from ..trace.replay import _interleave

__all__ = [
    "BatchUnsupported",
    "CellPlan",
    "LaneCols",
    "PlannedCommand",
    "PlannedFTL",
    "TxnSlice",
    "plan_cell",
    "stack_plans",
]


class BatchUnsupported(Exception):
    """The columnar plan cannot express this cell; use the scalar path."""


@dataclass(frozen=True)
class PlannedCommand(DeviceCommand):
    """A device command whose translation was fixed at plan time.

    ``lo:hi`` index the cell's transaction columns; the planned FTL
    returns that slice instead of translating, so the controller's
    dispatch loop runs unchanged.
    """

    lo: int = 0
    hi: int = 0


class TxnSlice:
    """A contiguous row range of a cell's transaction columns."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi

    def __len__(self) -> int:
        return self.hi - self.lo


class PlannedFTL:
    """Stand-in FTL whose translations were precomputed by the plan.

    Only ever sees :class:`PlannedCommand`s (the plan refused anything
    that could mutate FTL state), so translation is a slice lookup and
    the stats roll-up is identically zero — exactly what the real
    :class:`~repro.ssd.ftl.DeviceFTL` reports for a pure-read replay.
    """

    def __init__(self, n_logical_pages: int, page_bytes: int):
        self.n_logical_pages = n_logical_pages
        self.page_bytes = page_bytes
        self.stats = {
            "gc_runs": 0,
            "gc_moved_pages": 0,
            "host_writes_pages": 0,
            "rmw_reads": 0,
        }

    def preload(self, nbytes: int) -> None:  # pragma: no cover - plan validates
        pass

    def translate(self, cmd: DeviceCommand) -> TxnSlice:
        assert isinstance(cmd, PlannedCommand), "planned FTL needs planned commands"
        return TxnSlice(cmd.lo, cmd.hi)


@dataclass
class LaneCols:
    """Per-row columns one scheduler lane consumes (all int64).

    ``op`` .. ``cell_ns`` are shared between lanes (views of the
    stacked block); ``fb``/``hb``/``cmd`` carry the lane's bus, host
    and command-overhead arithmetic.
    """

    op: np.ndarray
    flat: np.ndarray
    nbytes: np.ndarray
    group: np.ndarray
    pib: np.ndarray
    unit: np.ndarray
    plane: np.ndarray
    chan: np.ndarray
    pkg: np.ndarray
    die: np.ndarray
    cell_ns: np.ndarray
    fb: np.ndarray
    hb: np.ndarray
    cmd: np.ndarray


@dataclass
class CellPlan:
    """One cell's static replay plan plus its stacked-column views."""

    label: str
    kind_name: str
    config: ExpConfig
    kind: NVMKind
    path: StoragePath
    posix_window: int
    groups: list[CommandGroup]  # planned commands, clients interleaved
    n: int
    flat: np.ndarray
    nbytes: np.ndarray
    cmd_ord: np.ndarray  # row -> command ordinal within the cell
    group_ids: np.ndarray
    #: filled by :func:`stack_plans`
    lanes: dict[str, LaneCols] = field(default_factory=dict)


def _pair_planes(
    flat: np.ndarray, cmd_ord: np.ndarray, U: int, P: int
) -> np.ndarray:
    """Vectorized multi-plane pairing, mirroring ``DeviceFTL._group_planes``.

    For ``P == 2`` a pair forms at row *i* exactly when rows *i*, *i+1*
    belong to the same command, target consecutive flats in sibling
    planes of one die at the same page slot, and row *i* is
    plane-aligned.  Pairs can never chain or overlap: a pair start
    needs an even plane unit, and the second member's unit is odd.
    Group-id *values* are assigned in plan order rather than dispatch
    order; only adjacency equality and sign are metric-visible, so the
    schedule and every metric are unchanged (golden-tested).
    """
    n = len(flat)
    group = np.full(n, -1, dtype=np.int64)
    if P == 1 or n < 2:
        return group
    if P != 2:
        raise BatchUnsupported(f"plane pairing for planes_per_die={P}")
    a, b = flat[:-1], flat[1:]
    pair = (
        (cmd_ord[1:] == cmd_ord[:-1])
        & (b == a + 1)
        & ((b % U) // P == (a % U) // P)
        & (b // U == a // U)
        & ((a % U) % P == 0)
    )
    idx = np.flatnonzero(pair)
    gids = np.arange(len(idx), dtype=np.int64)
    group[idx] = gids
    group[idx + 1] = gids
    return group


def plan_cell(
    label: str,
    kind_name: str,
    workload,
    seed: int,
) -> CellPlan:
    """Statically translate one Table-2 cell, or raise BatchUnsupported."""
    config = config_by_label(label)
    kind = kind_by_name(kind_name)
    path = config.build(kind, workload.bytes_per_client, seed=seed)
    device = path.device
    if device.queue_policy != "fifo":
        raise BatchUnsupported(f"queue policy {device.queue_policy!r}")
    if device.fault_model is not None:
        raise BatchUnsupported("device fault model attached")
    geom = device.geom
    if geom.planes_per_die not in (1, 2):
        raise BatchUnsupported(f"planes_per_die={geom.planes_per_die}")

    traces = workload.traces(path.clients)
    file_sizes: dict[int, int] = {}
    for t in traces:
        for fid, size in t.file_sizes().items():
            file_sizes[fid] = max(file_sizes.get(fid, 0), size)

    # mirror StoragePath.format_and_preload + DeviceFTL.preload checks;
    # the mapping itself is the identity striping, so no FTL state is
    # materialized (this is where the scalar path spends its preload)
    layout = path.fs.format(file_sizes)
    pb = geom.page_bytes
    need = max(layout.device_bytes, getattr(path.fs, "allocated_bytes", 0))
    if need > device.ftl.n_logical_pages * pb:
        raise BatchUnsupported("layout exceeds device logical space")
    npages = -(-need // pb)
    if npages > device.ftl.n_logical_pages:
        raise BatchUnsupported("preload exceeds logical space")

    per_client_groups = [
        [path.fs.translate(req, client=t.client) for req in t] for t in traces
    ]

    raw_cmds: list[DeviceCommand] = []
    for client_groups in per_client_groups:
        for g in client_groups:
            for c in g.commands:
                if c.op != "read":
                    raise BatchUnsupported(f"{c.op!r} command in stream")
                raw_cmds.append(c)

    n_cmds = len(raw_cmds)
    if n_cmds:
        lba = np.fromiter((c.lba for c in raw_cmds), dtype=np.int64, count=n_cmds)
        nb = np.fromiter((c.nbytes for c in raw_cmds), dtype=np.int64, count=n_cmds)
        first = lba // pb
        last = (lba + nb - 1) // pb
        npp = last - first + 1
        total = int(npp.sum())
        cmd_ord = np.repeat(np.arange(n_cmds, dtype=np.int64), npp)
        starts = np.cumsum(npp) - npp
        lpage = first[cmd_ord] + (np.arange(total, dtype=np.int64) - starts[cmd_ord])
        if total and int(lpage.max()) >= npages:
            # a read of never-preloaded space would cold-adopt a mapping
            # (FTL state mutation) on the scalar path
            raise BatchUnsupported("read outside the pre-staged extent")
        ends = lba + nb
        lo_b = np.maximum(lba[cmd_ord], lpage * pb)
        hi_b = np.minimum(ends[cmd_ord], (lpage + 1) * pb)
        nbytes = hi_b - lo_b
        flat = lpage  # identity striping: map[L] == L for preloaded pages
        group_ids = _pair_planes(flat, cmd_ord, geom.plane_units, geom.planes_per_die)
        bounds = np.r_[starts, total]
    else:
        cmd_ord = np.empty(0, dtype=np.int64)
        flat = np.empty(0, dtype=np.int64)
        nbytes = np.empty(0, dtype=np.int64)
        group_ids = np.empty(0, dtype=np.int64)
        bounds = np.zeros(1, dtype=np.int64)
        total = 0

    # rebuild the command groups around planned commands carrying their
    # row slices; group/flow-control structure is untouched
    planned_per_client: list[list[CommandGroup]] = []
    k = 0
    for client_groups in per_client_groups:
        out_groups = []
        for g in client_groups:
            cmds = []
            for c in g.commands:
                cmds.append(
                    PlannedCommand(
                        op=c.op,
                        lba=c.lba,
                        nbytes=c.nbytes,
                        kind=c.kind,
                        barrier=c.barrier,
                        lo=int(bounds[k]),
                        hi=int(bounds[k + 1]),
                    )
                )
                k += 1
            out_groups.append(CommandGroup(posix=g.posix, commands=cmds, client=g.client))
        planned_per_client.append(out_groups)
    groups = (
        planned_per_client[0]
        if len(planned_per_client) == 1
        else _interleave(planned_per_client)
    )

    return CellPlan(
        label=label,
        kind_name=kind_name,
        config=config,
        kind=kind,
        path=path,
        posix_window=workload.posix_window,
        groups=groups,
        n=total,
        flat=flat,
        nbytes=nbytes,
        cmd_ord=cmd_ord,
        group_ids=group_ids,
    )


def stack_plans(plans: list[CellPlan]) -> int:
    """Evaluate the shared per-transaction arithmetic for all plans.

    Concatenates every planned cell into one (cell x txn) int64 block
    and computes address decode, ladder latencies, bus/host transfer
    times and command-sharing discounts in one vectorized pass — the
    same formulas ``TransactionScheduler.submit`` applies per command,
    hoisted across the whole matrix.  Each plan receives ``main`` and
    ``peak`` lane views over its rows.  Returns the stacked row count.
    """
    plans = [p for p in plans]
    if not plans:
        return 0
    ncells = len(plans)
    ns = np.array([p.n for p in plans], dtype=np.int64)
    total = int(ns.sum())
    cellidx = np.repeat(np.arange(ncells, dtype=np.int64), ns)

    def const(vals) -> np.ndarray:
        return np.asarray(vals, dtype=np.int64)[cellidx]

    flat = (
        np.concatenate([p.flat for p in plans]) if total else np.empty(0, np.int64)
    )
    nbytes = (
        np.concatenate([p.nbytes for p in plans]) if total else np.empty(0, np.int64)
    )
    group = (
        np.concatenate([p.group_ids for p in plans])
        if total
        else np.empty(0, np.int64)
    )

    geoms = [p.path.device.geom for p in plans]
    U = const([g.plane_units for g in geoms])
    P = const([g.planes_per_die for g in geoms])
    C = const([g.channels for g in geoms])
    D = const([g.dies_per_package for g in geoms])
    K = const([g.packages_per_channel for g in geoms])
    ppb = const([g.pages_per_block for g in geoms])

    # address decode — the exact integer formulas of the scalar pre-pass
    u = flat % U
    plane = u % P
    rest = u // P
    chan = rest % C
    rest = rest // C
    pkg = rest // D + K * chan
    die = rest % D + D * pkg
    pib = (flat // U) % ppb

    # read-latency ladder gather (the stream is all reads by plan
    # construction); ladders differ per kind, so gather through one
    # concatenated ladder table with per-cell bases
    ladders = [np.asarray(p.kind.read_ladder, dtype=np.int64) for p in plans]
    lad_table = np.concatenate(ladders) if ladders else np.empty(0, np.int64)
    lad_lens = np.array([len(lad) for lad in ladders], dtype=np.int64)
    lad_base = np.cumsum(lad_lens) - lad_lens
    cell_ns = (
        lad_table[lad_base[cellidx] + pib % lad_lens[cellidx]]
        if total
        else np.empty(0, np.int64)
    )
    op = np.full(total, OpCode.READ, dtype=np.int64)

    # command-sharing discount: within one submitted command, members
    # of a multi-plane group after the first ride the already-paid
    # command/address cycles
    cmd_key = np.concatenate(
        [p.cmd_ord + i * (1 << 32) for i, p in enumerate(plans)]
        or [np.empty(0, np.int64)]
    )
    shared = np.zeros(total, dtype=bool)
    if total > 1:
        shared[1:] = (
            (group[1:] >= 0)
            & (group[1:] == group[:-1])
            & (cmd_key[1:] == cmd_key[:-1])
        )

    # lane transfer arithmetic: main uses each cell's configured bus and
    # host; peak uses the unconstrained-interface constants
    bus_npb = np.asarray(
        [1e9 / p.path.device.bus.bytes_per_sec for p in plans], dtype=np.float64
    )[cellidx]
    host_npb = np.asarray(
        [1e9 / p.path.device.host.bytes_per_sec for p in plans], dtype=np.float64
    )[cellidx]
    cmd_ns = const([p.path.device.bus.cmd_ns for p in plans])
    fb_main = (nbytes * bus_npb).astype(np.int64)
    hb_main = (nbytes * host_npb).astype(np.int64)
    cmd_main = np.where(shared, 0, cmd_ns)

    fb_peak = (nbytes * (1e9 / INFINITE_BUS.bytes_per_sec)).astype(np.int64)
    hb_peak = (nbytes * (1e9 / INFINITE_HOST.bytes_per_sec)).astype(np.int64)
    cmd_peak = np.where(shared, 0, np.int64(INFINITE_BUS.cmd_ns))

    offsets = np.cumsum(ns) - ns
    for i, p in enumerate(plans):
        sl = slice(int(offsets[i]), int(offsets[i] + ns[i]))
        shared_cols = dict(
            op=op[sl],
            flat=flat[sl],
            nbytes=nbytes[sl],
            group=group[sl],
            pib=pib[sl],
            unit=u[sl],
            plane=plane[sl],
            chan=chan[sl],
            pkg=pkg[sl],
            die=die[sl],
            cell_ns=cell_ns[sl],
        )
        p.lanes = {
            "main": LaneCols(
                fb=fb_main[sl], hb=hb_main[sl], cmd=cmd_main[sl], **shared_cols
            ),
            "peak": LaneCols(
                fb=fb_peak[sl], hb=hb_peak[sl], cmd=cmd_peak[sl], **shared_cols
            ),
        }
    return total

