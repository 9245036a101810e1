"""Transaction-level SSD timing scheduler.

This module is the timing heart of the reproduction: it assigns every
page-level NVM transaction start/end times on the device's contended
resources and records the per-transaction timeline from which all of
the paper's evaluation metrics (Figures 7-10) derive.

Resource model (per Section 2.3 / Figure 5):

* **die** — executes cell operations (read sense, program, erase) and
  holds its page register until the data has crossed the
  package-internal *flash bus*; cell operations on one die serialize.
  Multi-plane groups share command/arbitration overhead (and classify
  as PAL3/PAL4) per Section 4.5.
* **package flash bus** — serializes register<->channel movement of the
  dies inside one package ("flash bus activation").
* **channel bus** — shared by the 8 packages of a channel; each
  transaction pays command/address cycles plus the data beats
  ("channel activation").
* **host path** — PCIe (bridged or native) or the ION network; data
  crosses it after leaving the channel (reads) or before reaching it
  (writes) ("non-overlapped DMA" when it cannot hide behind media
  activity).

The scheduler is deterministic and processes transactions in submission
order; parallelism emerges from the per-resource availability times
exactly as in a non-preemptive list schedule.

Implementation note (performance): per :class:`CommandGroup` batch, the
address decode, cell-latency ladder lookups, bus/host transfer times
and command-sharing discounts carry no cross-transaction dependency, so
they are precomputed with numpy in one vectorized pass; only the
irreducibly sequential resource-timeline recurrence runs as a scalar
loop over plain ints.  Log rows land in preallocated int64 column
buffers (one row per :data:`LOG_COLUMNS` entry), so :meth:`finish`
returns views without the list-of-tuples transpose copy.  The schedule
itself is bit-identical to the scalar reference implementation kept in
:mod:`repro.ssd.reference_scheduler` (enforced by the golden test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..interconnect.host import HostPath
from ..nvm.bus import BusSpec
from ..nvm.kinds import NVMKind
from .ftl import Txn
from .geometry import Geometry
from .request import OpCode

__all__ = ["TransactionScheduler", "TxnLog"]

#: Column names of the transaction log (all int64 ns except noted).
LOG_COLUMNS = (
    "req",  # block-request id
    "client",
    "op",
    "channel",
    "package",  # global package id
    "die",  # global die id
    "plane",
    "nbytes",
    "group",
    "kind_code",  # 0 data, 1 journal, 2 metadata (for analysis)
    "flat",  # physical flat stripe index
    "pib",  # page-in-block (latency ladder position)
    "arrival",
    "cell_start",
    "cell_end",
    "fb_start",
    "fb_end",
    "ch_start",
    "ch_end",
    "h_start",
    "h_end",
    "media_done",
    "done",
)

KIND_CODES = {"data": 0, "journal": 1, "metadata": 2}

#: name -> row index in the scheduler's preallocated column buffer
_COL = {name: i for i, name in enumerate(LOG_COLUMNS)}


@dataclass
class TxnLog:
    """Columnar log of scheduled transactions."""

    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]


class TransactionScheduler:
    """Greedy list scheduler over the SSD's resource timelines."""

    def __init__(
        self,
        geometry: Geometry,
        bus: BusSpec,
        host: HostPath,
        kind: NVMKind | None = None,
    ):
        self.geom = geometry
        self.bus = bus
        self.host = host
        self.kind = kind or geometry.kind

        g = geometry
        # plain Python lists: scalar indexing is much faster than ndarray
        self.chan_free = [0] * g.channels
        self.pkg_free = [0] * g.packages
        #: cell-array availability per die (senses/programs serialize)
        self.die_free = [0] * g.dies
        #: page-register availability per plane unit: the register holds
        #: its data until the channel transfer drains, so a die can run
        #: at most one outstanding transfer per plane (dual-register
        #: architecture) — this throttles sensing to the bus rate
        self.plane_free = [0] * g.plane_units
        self.host_free = 0
        # decode constants
        self._U = g.plane_units
        self._P = g.planes_per_die
        self._C = g.channels
        self._D = g.dies_per_package
        self._K = g.packages_per_channel
        self._ppb = g.pages_per_block
        # cached timing
        self._cmd_ns = bus.cmd_ns
        self._bus_ns_per_byte = 1e9 / bus.bytes_per_sec
        self._host_ns_per_byte = 1e9 / host.bytes_per_sec
        # cached latency ladders as ndarrays for vectorized lookup
        k = self.kind
        self._read_ladder_a = np.asarray(k.read_ladder, dtype=np.int64)
        self._prog_ladder_a = np.asarray(k.program_ladder, dtype=np.int64)
        # preallocated columnar log: one row per LOG_COLUMNS entry
        self._buf = np.empty((len(LOG_COLUMNS), 1024), dtype=np.int64)
        self._n = 0
        self._txn_counter = 0

    def _reserve(self, extra: int) -> None:
        """Grow the column buffers to hold ``extra`` more rows."""
        need = self._n + extra
        cap = self._buf.shape[1]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        buf = np.empty((len(LOG_COLUMNS), cap), dtype=np.int64)
        buf[:, : self._n] = self._buf[:, : self._n]
        self._buf = buf

    # ------------------------------------------------------------------
    def _decode(self, flat: int) -> tuple[int, int, int, int]:
        """flat -> (channel, global package, global die, plane)."""
        u = flat % self._U
        plane = u % self._P
        rest = u // self._P
        channel = rest % self._C
        rest //= self._C
        die_in_pkg = rest % self._D
        pkg_in_ch = rest // self._D
        pkg_g = pkg_in_ch + self._K * channel
        die_g = die_in_pkg + self._D * pkg_g
        return channel, pkg_g, die_g, plane

    def _cell_ns(self, op: int, page_in_block: int) -> int:
        k = self.kind
        if op == OpCode.READ:
            return k.read_latency_ns(page_in_block)
        if op == OpCode.WRITE:
            return k.program_latency_ns(page_in_block)
        return k.erase_ns

    # ------------------------------------------------------------------
    def submit(
        self,
        txns: Sequence[Txn],
        arrival: int,
        req_id: int,
        client: int = 0,
        kind_label: str = "data",
    ) -> int:
        """Schedule the transactions of one block request.

        Returns the request's completion time: for reads, when the last
        byte has crossed the host path; for writes/erases, when the
        media operation is durable.
        """
        if arrival < 0:
            raise ValueError("negative arrival")
        if not isinstance(txns, (list, tuple)):
            txns = list(txns)
        n = len(txns)
        if n == 0:
            return arrival

        arr = np.asarray(txns, dtype=np.int64).reshape(n, 5)
        return self._schedule_arrays(
            arrival, req_id, client, kind_label,
            *self._prepass(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4]),
        )

    def _prepass(
        self,
        op_a: np.ndarray,
        flat_a: np.ndarray,
        nbytes_a: np.ndarray,
        group_a: np.ndarray,
        pib_a: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """Vectorized pre-pass over int64 transaction columns.

        Everything without a cross-transaction dependency (address
        decode, latency ladders, transfer times, command-sharing
        discounts) in one numpy sweep.  Returns the column arguments of
        :meth:`_schedule_arrays`, in its order.
        """
        n = len(op_a)
        u_a = flat_a % self._U
        plane_a = u_a % self._P
        rest = u_a // self._P
        chan_a = rest % self._C
        rest = rest // self._C
        pkg_a = rest // self._D + self._K * chan_a
        die_a = rest % self._D + self._D * pkg_a

        read_ladder = self._read_ladder_a
        prog_ladder = self._prog_ladder_a
        cell_a = np.full(n, self.kind.erase_ns, dtype=np.int64)
        is_read = op_a == OpCode.READ
        is_write = op_a == OpCode.WRITE
        if is_read.any():
            cell_a[is_read] = read_ladder[pib_a[is_read] % len(read_ladder)]
        if is_write.any():
            cell_a[is_write] = prog_ladder[pib_a[is_write] % len(prog_ladder)]

        fb_a = (nbytes_a * self._bus_ns_per_byte).astype(np.int64)
        hb_a = (nbytes_a * self._host_ns_per_byte).astype(np.int64)
        # members of a multi-plane group after the first share the
        # command/address cycles already paid on the channel
        shared = np.zeros(n, dtype=bool)
        if n > 1:
            shared[1:] = (group_a[1:] >= 0) & (group_a[1:] == group_a[:-1])
        cmd_a = np.where(shared, 0, self._cmd_ns)
        return (
            op_a, flat_a, nbytes_a, group_a, pib_a,
            u_a, plane_a, chan_a, pkg_a, die_a,
            cell_a, fb_a, hb_a, cmd_a,
        )

    def _schedule_arrays(
        self,
        arrival: int,
        req_id: int,
        client: int,
        kind_label: str,
        op_a: np.ndarray,
        flat_a: np.ndarray,
        nbytes_a: np.ndarray,
        group_a: np.ndarray,
        pib_a: np.ndarray,
        u_a: np.ndarray,
        plane_a: np.ndarray,
        chan_a: np.ndarray,
        pkg_a: np.ndarray,
        die_a: np.ndarray,
        cell_a: np.ndarray,
        fb_a: np.ndarray,
        hb_a: np.ndarray,
        cmd_a: np.ndarray,
    ) -> int:
        """Resource-timeline recurrence over fully pre-passed columns.

        ``submit`` computes the pre-pass (:meth:`_prepass`: decode,
        ladders, transfer times, command sharing) from transaction
        tuples and delegates here; the pattern-peak replay feeds a log's
        own columns through the same pre-pass; the columnar batch backend computes the identical pre-pass
        for many cells in one stacked numpy sweep at plan time and
        submits slices directly.  Either way the schedule is the same
        recurrence over the same int64 values — bit-identical by
        construction.
        """
        n = len(op_a)
        # -- scalar recurrence over plain ints (ndarray item access is
        # slower than list indexing in the dependency loop)
        op_l = op_a.tolist()
        unit_l = u_a.tolist()
        chan_l = chan_a.tolist()
        pkg_l = pkg_a.tolist()
        die_l = die_a.tolist()
        cell_l = cell_a.tolist()
        fb_l = fb_a.tolist()
        hb_l = hb_a.tolist()
        cmd_l = cmd_a.tolist()

        chan_free = self.chan_free
        pkg_free = self.pkg_free
        die_free = self.die_free
        plane_free = self.plane_free
        host_free = self.host_free
        READ, WRITE = OpCode.READ, OpCode.WRITE
        completion = arrival

        cs_l = [0] * n
        ce_l = [0] * n
        fs_l = [0] * n
        fe_l = [0] * n
        ss_l = [0] * n
        se_l = [0] * n
        hs_l = [0] * n
        he_l = [0] * n
        md_l = [0] * n
        dn_l = [0] * n

        for i in range(n):
            op = op_l[i]
            unit = unit_l[i]
            die_g = die_l[i]
            if op == READ:
                # full-page sense regardless of payload size; the sense
                # needs the cell array free AND this plane's register
                # drained from its previous transfer
                c_start = arrival
                df = die_free[die_g]
                if df > c_start:
                    c_start = df
                pl = plane_free[unit]
                if pl > c_start:
                    c_start = pl
                c_end = c_start + cell_l[i]
                die_free[die_g] = c_end
                fb_ns = fb_l[i]
                pkg_g = pkg_l[i]
                pf = pkg_free[pkg_g]
                f_start = pf if pf > c_end else c_end
                f_end = f_start + fb_ns
                pkg_free[pkg_g] = f_end
                channel = chan_l[i]
                cf = chan_free[channel]
                s_start = cf if cf > f_end else f_end
                s_end = s_start + cmd_l[i] + fb_ns
                chan_free[channel] = s_end
                plane_free[unit] = s_end  # register drains with the bus
                h_start = host_free if host_free > s_end else s_end
                h_end = h_start + hb_l[i]
                host_free = h_end
                media_done = s_end
                done = h_end
            elif op == WRITE:
                h_start = host_free if host_free > arrival else arrival
                h_end = h_start + hb_l[i]
                host_free = h_end
                fb_ns = fb_l[i]
                channel = chan_l[i]
                cf = chan_free[channel]
                s_start = cf if cf > h_end else h_end
                s_end = s_start + cmd_l[i] + fb_ns
                chan_free[channel] = s_end
                # loading the register needs it drained from prior use
                pkg_g = pkg_l[i]
                pf = pkg_free[pkg_g]
                f_start = pf if pf > s_end else s_end
                pl = plane_free[unit]
                if pl > f_start:
                    f_start = pl
                f_end = f_start + fb_ns
                pkg_free[pkg_g] = f_end
                df = die_free[die_g]
                c_start = df if df > f_end else f_end
                c_end = c_start + cell_l[i]
                die_free[die_g] = c_end
                plane_free[unit] = c_end  # register held during program
                media_done = c_end
                done = c_end
            else:  # ERASE
                c_start = arrival
                df = die_free[die_g]
                if df > c_start:
                    c_start = df
                pl = plane_free[unit]
                if pl > c_start:
                    c_start = pl
                c_end = c_start + cell_l[i]
                die_free[die_g] = c_end
                plane_free[unit] = c_end
                f_start = f_end = c_end
                s_start = s_end = c_end
                h_start = h_end = c_end
                media_done = c_end
                done = c_end

            if done > completion:
                completion = done
            cs_l[i] = c_start
            ce_l[i] = c_end
            fs_l[i] = f_start
            fe_l[i] = f_end
            ss_l[i] = s_start
            se_l[i] = s_end
            hs_l[i] = h_start
            he_l[i] = h_end
            md_l[i] = media_done
            dn_l[i] = done

        self.host_free = host_free

        # -- bulk write into the preallocated column buffers
        self._reserve(n)
        base = self._n
        end = base + n
        buf = self._buf
        buf[_COL["req"], base:end] = req_id
        buf[_COL["client"], base:end] = client
        buf[_COL["op"], base:end] = op_a
        buf[_COL["channel"], base:end] = chan_a
        buf[_COL["package"], base:end] = pkg_a
        buf[_COL["die"], base:end] = die_a
        buf[_COL["plane"], base:end] = plane_a
        buf[_COL["nbytes"], base:end] = nbytes_a
        buf[_COL["group"], base:end] = group_a
        buf[_COL["kind_code"], base:end] = KIND_CODES.get(kind_label, 0)
        buf[_COL["flat"], base:end] = flat_a
        buf[_COL["pib"], base:end] = pib_a
        buf[_COL["arrival"], base:end] = arrival
        buf[_COL["cell_start"], base:end] = cs_l
        buf[_COL["cell_end"], base:end] = ce_l
        buf[_COL["fb_start"], base:end] = fs_l
        buf[_COL["fb_end"], base:end] = fe_l
        buf[_COL["ch_start"], base:end] = ss_l
        buf[_COL["ch_end"], base:end] = se_l
        buf[_COL["h_start"], base:end] = hs_l
        buf[_COL["h_end"], base:end] = he_l
        buf[_COL["media_done"], base:end] = md_l
        buf[_COL["done"], base:end] = dn_l
        self._n = end
        return completion

    # ------------------------------------------------------------------
    def finish(self) -> TxnLog:
        """Freeze the log into columnar arrays (views, no transpose copy)."""
        n = self._n
        buf = self._buf
        return TxnLog({name: buf[i, :n] for i, name in enumerate(LOG_COLUMNS)})

    @property
    def n_txns(self) -> int:
        return self._n
