"""Unit tests of the segmented interval algebra.

The one-sweep union measure must agree exactly with the reference
``tests.oracle.intervals`` merge+measure on every key — including
degenerate rows, empty keys, unsorted input, and adversarial overlap
patterns — because the batch metrics pass leans on that equality for
its bit-identity guarantee.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.segments import (
    distinct_count,
    measure_sorted,
    sorted_filter,
    union_measure,
)
from tests.oracle import intervals


def _reference(key, start, end, n_keys):
    out = np.zeros(n_keys, dtype=np.int64)
    for k in range(n_keys):
        sel = key == k
        iv = intervals.as_intervals(list(zip(start[sel], end[sel])))
        out[k] = int(intervals.measure(intervals.merge(iv)))
    return out


def test_empty_input():
    z = np.array([], dtype=np.int64)
    assert union_measure(z, z, z, 3).tolist() == [0, 0, 0]
    assert distinct_count(z, z, 3).tolist() == [0, 0, 0]


def test_degenerate_rows_dropped():
    key = np.array([0, 0, 1], dtype=np.int64)
    start = np.array([5, 7, 2], dtype=np.int64)
    end = np.array([5, 4, 9], dtype=np.int64)  # all empty except last
    assert union_measure(key, start, end, 2).tolist() == [0, 7]


def test_disjoint_overlapping_nested_mix():
    key = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
    start = np.array([0, 10, 4, 0, 2, 100], dtype=np.int64)
    end = np.array([5, 20, 12, 8, 6, 101], dtype=np.int64)
    # key 0: [0,5)+[4,12)+[10,20) merge to [0,20); key 1: [0,8); key 2: 1
    assert union_measure(key, start, end, 4).tolist() == [20, 8, 1, 0]


@pytest.mark.parametrize("seed", range(5))
def test_randomized_cross_check_vs_intervals(seed):
    rng = np.random.default_rng(seed)
    n = 500
    n_keys = 17
    key = rng.integers(0, n_keys, n).astype(np.int64)
    start = rng.integers(0, 10_000, n).astype(np.int64)
    end = start + rng.integers(-5, 200, n).astype(np.int64)
    got = union_measure(key, start, end, n_keys)
    assert got.tolist() == _reference(key, start, end, n_keys).tolist()


def test_nested_family_reuses_outer_sort():
    """A sorted subset of a sorted family measures identically to a
    fresh standalone sort — the trick the metrics pass relies on."""
    rng = np.random.default_rng(7)
    n = 300
    key = rng.integers(0, 5, 2 * n).astype(np.int64)
    start = rng.integers(0, 1000, 2 * n).astype(np.int64)
    end = start + rng.integers(0, 50, 2 * n).astype(np.int64)
    ids, k, s, e = sorted_filter(key, start, end)
    outer = measure_sorted(k, s, e, 5)
    assert outer.tolist() == union_measure(key, start, end, 5).tolist()
    sub = ids < n  # first half as the nested family
    inner = measure_sorted(k[sub], s[sub], e[sub], 5)
    assert inner.tolist() == union_measure(key[:n], start[:n], end[:n], 5).tolist()


def test_distinct_count():
    key = np.array([0, 0, 0, 1, 2, 2], dtype=np.int64)
    val = np.array([3, 3, 5, 1, 9, 9], dtype=np.int64)
    assert distinct_count(key, val, 4).tolist() == [2, 1, 1, 0]
