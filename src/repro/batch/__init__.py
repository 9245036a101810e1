"""Columnar batch kernel: many Table-2 cells in one numpy pass.

The scalar engine replays every matrix cell through a Python
dispatch/translate/metrics pipeline.  For the pre-staged, read-only OoC
eigensolver workload the per-cell transaction streams are *statically
known* the moment the file system has laid the files out: address
translation is the identity striping installed by
:meth:`repro.ssd.ftl.DeviceFTL.preload`, no command mutates FTL state,
and every per-transaction quantity except the resource-timeline
recurrence is embarrassingly data-parallel.

This package exploits that: it pre-translates every cell's command
stream, stacks all cells into one (cell x txn) int64 columnar block,
evaluates address decode, latency-ladder lookups, bus/link arithmetic
and command-sharing discounts for the whole matrix in a single numpy
sweep, replays each cell's flow control through the *unchanged*
controller loop and scheduler recurrence, and finally computes all
paper metrics with segmented (per-lane) interval algebra in a second
stacked sweep.

The scalar replay (``ssd/scheduler.py`` + ``experiments/runner.py``)
handles every cell the plan cannot express, and golden tests assert
:class:`~repro.ssd.metrics.RunMetrics` equality between the two backends
for all 52 Table-2 cells.  Both backends share one metrics pass
(:mod:`repro.batch.metrics`; the scalar path calls it at width 1).  Its
per-resource reference lives in ``tests/oracle/``.

Fallback contract: anything the columnar plan cannot express — write or
trim commands, cold (unmapped) reads, fault injection, non-FIFO queue
policies, geometries without plane pairs — raises
:class:`BatchUnsupported` at plan time and the cell runs on the scalar
backend instead, bit-for-bit unchanged.
"""

from .backend import BatchReport, run_cells_batch
from .plan import BatchUnsupported, CellPlan, plan_cell, stack_plans

__all__ = [
    "BatchReport",
    "BatchUnsupported",
    "CellPlan",
    "plan_cell",
    "run_cells_batch",
    "stack_plans",
]
