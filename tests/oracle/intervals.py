"""Interval arithmetic over half-open ``[start, end)`` time intervals.

The reference metrics pass (:mod:`tests.oracle.metrics`: utilization,
execution-time decomposition, non-overlapped DMA) is defined in terms of
unions, intersections and differences of busy intervals collected from
the transaction scheduler.
All operations here are vectorized with NumPy; intervals are represented
as ``(n, 2)`` float64/int64 arrays of ``(start, end)`` rows.

Empty interval sets are represented by arrays of shape ``(0, 2)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_intervals",
    "merge",
    "measure",
    "intersect",
    "subtract",
    "union",
    "span",
    "coverage_fraction",
]


def as_intervals(pairs) -> np.ndarray:
    """Coerce ``pairs`` to a well-formed ``(n, 2)`` interval array.

    Degenerate rows (``end <= start``) are dropped.  Input may be any
    sequence of ``(start, end)`` pairs or an existing array.
    """
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.float64)
    arr = arr.reshape(-1, 2)
    return arr[arr[:, 1] > arr[:, 0]]


def merge(iv: np.ndarray) -> np.ndarray:
    """Return the canonical disjoint, sorted union of ``iv``.

    Overlapping and abutting intervals are coalesced.  ``O(n log n)``.
    """
    iv = as_intervals(iv)
    if len(iv) == 0:
        return iv
    order = np.argsort(iv[:, 0], kind="stable")
    iv = iv[order]
    starts = iv[:, 0]
    ends = np.maximum.accumulate(iv[:, 1])
    # A new merged interval begins wherever a start exceeds the running
    # maximum end of everything before it.
    new_group = np.empty(len(iv), dtype=bool)
    new_group[0] = True
    new_group[1:] = starts[1:] > ends[:-1]
    group_ids = np.cumsum(new_group) - 1
    n_groups = group_ids[-1] + 1
    out = np.empty((n_groups, 2), dtype=np.float64)
    first_idx = np.flatnonzero(new_group)
    out[:, 0] = starts[first_idx]
    last_idx = np.r_[first_idx[1:] - 1, len(iv) - 1]
    out[:, 1] = ends[last_idx]
    return out


def measure(iv: np.ndarray) -> float:
    """Total length covered by the union of ``iv``."""
    m = merge(iv)
    if len(m) == 0:
        return 0.0
    return float(np.sum(m[:, 1] - m[:, 0]))


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two interval sets, returned in canonical form."""
    a = as_intervals(a)
    b = as_intervals(b)
    if len(a) == 0:
        return merge(b)
    if len(b) == 0:
        return merge(a)
    return merge(np.vstack([a, b]))


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two interval sets (each first canonicalized)."""
    a = merge(a)
    b = merge(b)
    if len(a) == 0 or len(b) == 0:
        return np.empty((0, 2), dtype=np.float64)
    # Sweep: for every pair of merged intervals that overlap, emit the
    # overlap.  Use searchsorted to bound the candidate ranges.
    out = []
    starts_b = b[:, 0]
    ends_b = b[:, 1]
    for s, e in a:
        lo = np.searchsorted(ends_b, s, side="right")
        hi = np.searchsorted(starts_b, e, side="left")
        if hi > lo:
            seg_s = np.maximum(starts_b[lo:hi], s)
            seg_e = np.minimum(ends_b[lo:hi], e)
            keep = seg_e > seg_s
            if np.any(keep):
                out.append(np.column_stack([seg_s[keep], seg_e[keep]]))
    if not out:
        return np.empty((0, 2), dtype=np.float64)
    return np.vstack(out)


def subtract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Set difference ``a \\ b`` as a canonical interval set."""
    a = merge(a)
    b = merge(b)
    if len(a) == 0:
        return a
    if len(b) == 0:
        return a
    out = []
    starts_b = b[:, 0]
    ends_b = b[:, 1]
    for s, e in a:
        lo = np.searchsorted(ends_b, s, side="right")
        hi = np.searchsorted(starts_b, e, side="left")
        cur = s
        for j in range(lo, hi):
            bs, be = starts_b[j], ends_b[j]
            if bs > cur:
                out.append((cur, min(bs, e)))
            cur = max(cur, be)
            if cur >= e:
                break
        if cur < e:
            out.append((cur, e))
    return as_intervals(out)


def span(iv: np.ndarray) -> float:
    """Length from earliest start to latest end (0 for empty sets)."""
    iv = as_intervals(iv)
    if len(iv) == 0:
        return 0.0
    return float(iv[:, 1].max() - iv[:, 0].min())


def coverage_fraction(iv: np.ndarray, window: np.ndarray) -> float:
    """Fraction of ``window`` covered by ``iv`` (both interval sets)."""
    denom = measure(window)
    if denom <= 0.0:
        return 0.0
    return measure(intersect(iv, window)) / denom
