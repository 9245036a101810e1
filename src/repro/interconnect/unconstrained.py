"""The unconstrained interface of the pattern-peak replays (Figs 7b/8b).

"Bandwidth remaining" measures a run against the same transaction
stream replayed with an (effectively) infinite NVM bus and host path
and no per-command firmware overhead, so only the cell-level media
constrain it.  Both the scalar and the batch backend build that replay
from the definitions here.  The bus and host are both named
``"infinite"``, which is how traces tell peak replays apart.
"""

from __future__ import annotations

from ..nvm.bus import BusSpec
from .host import HostPath

__all__ = ["INFINITE_BUS", "INFINITE_HOST", "make_unconstrained"]

INFINITE_BUS = BusSpec(name="infinite", mhz=10**9, ddr=True, cmd_ns=0)
INFINITE_HOST = HostPath(name="infinite", bytes_per_sec=1e18, per_request_ns=0)


def make_unconstrained(device) -> None:
    """Mutate an :class:`~repro.ssd.controller.SSDevice` into the peak
    configuration: infinite bus and host, zero command overhead."""
    device.bus = INFINITE_BUS
    device.host = INFINITE_HOST
    device.command_overhead_ns = 0
