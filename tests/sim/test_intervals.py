"""Interval arithmetic: unit + property-based tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracle import intervals as iv


def ivs(*pairs):
    return iv.as_intervals(list(pairs))


class TestAsIntervals:
    def test_empty(self):
        assert iv.as_intervals([]).shape == (0, 2)

    def test_drops_degenerate(self):
        out = ivs((0, 0), (5, 3), (1, 2))
        assert out.tolist() == [[1.0, 2.0]]

    def test_reshapes_flat_input(self):
        out = iv.as_intervals(np.array([0.0, 1.0, 2.0, 3.0]))
        assert out.shape == (2, 2)


class TestMerge:
    def test_disjoint_kept(self):
        out = iv.merge(ivs((0, 1), (2, 3)))
        assert out.tolist() == [[0, 1], [2, 3]]

    def test_overlap_coalesced(self):
        out = iv.merge(ivs((0, 2), (1, 3)))
        assert out.tolist() == [[0, 3]]

    def test_abutting_coalesced(self):
        out = iv.merge(ivs((0, 1), (1, 2)))
        assert out.tolist() == [[0, 2]]

    def test_containment(self):
        out = iv.merge(ivs((0, 10), (2, 3), (4, 5)))
        assert out.tolist() == [[0, 10]]

    def test_unsorted_input(self):
        out = iv.merge(ivs((5, 6), (0, 1), (3, 4)))
        assert out.tolist() == [[0, 1], [3, 4], [5, 6]]


class TestMeasure:
    def test_empty_is_zero(self):
        assert iv.measure(ivs()) == 0.0

    def test_simple(self):
        assert iv.measure(ivs((0, 2), (4, 7))) == 5.0

    def test_double_count_avoided(self):
        assert iv.measure(ivs((0, 10), (5, 15))) == 15.0


class TestIntersect:
    def test_disjoint(self):
        assert len(iv.intersect(ivs((0, 1)), ivs((2, 3)))) == 0

    def test_partial(self):
        out = iv.intersect(ivs((0, 5)), ivs((3, 8)))
        assert iv.measure(out) == 2.0

    def test_multi(self):
        out = iv.intersect(ivs((0, 10)), ivs((1, 2), (3, 4), (9, 12)))
        assert iv.measure(out) == pytest.approx(3.0)


class TestSubtract:
    def test_full_removal(self):
        assert iv.measure(iv.subtract(ivs((0, 5)), ivs((0, 5)))) == 0.0

    def test_hole_punch(self):
        out = iv.subtract(ivs((0, 10)), ivs((3, 4)))
        assert out.tolist() == [[0, 3], [4, 10]]

    def test_no_overlap(self):
        out = iv.subtract(ivs((0, 2)), ivs((5, 9)))
        assert out.tolist() == [[0, 2]]

    def test_left_clip(self):
        out = iv.subtract(ivs((2, 8)), ivs((0, 4)))
        assert out.tolist() == [[4, 8]]


class TestSpanCoverage:
    def test_span(self):
        assert iv.span(ivs((2, 3), (10, 12))) == 10.0

    def test_coverage_fraction(self):
        frac = iv.coverage_fraction(ivs((0, 5)), ivs((0, 10)))
        assert frac == pytest.approx(0.5)

    def test_coverage_empty_window(self):
        assert iv.coverage_fraction(ivs((0, 5)), ivs()) == 0.0


interval_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    ).map(lambda t: (min(t), max(t) + 1)),
    min_size=0,
    max_size=30,
)


class TestProperties:
    @given(interval_lists)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_disjoint_sorted(self, pairs):
        m = iv.merge(iv.as_intervals(pairs))
        if len(m) > 1:
            assert np.all(m[1:, 0] > m[:-1, 1])  # strictly separated
        assert np.all(m[:, 1] > m[:, 0])

    @given(interval_lists)
    @settings(max_examples=100, deadline=None)
    def test_merge_preserves_measure(self, pairs):
        a = iv.as_intervals(pairs)
        assert iv.measure(a) == pytest.approx(iv.measure(iv.merge(a)))

    @given(interval_lists, interval_lists)
    @settings(max_examples=100, deadline=None)
    def test_inclusion_exclusion(self, p1, p2):
        a, b = iv.as_intervals(p1), iv.as_intervals(p2)
        lhs = iv.measure(iv.union(a, b))
        rhs = iv.measure(a) + iv.measure(b) - iv.measure(iv.intersect(a, b))
        assert lhs == pytest.approx(rhs)

    @given(interval_lists, interval_lists)
    @settings(max_examples=100, deadline=None)
    def test_subtract_partitions_a(self, p1, p2):
        a, b = iv.as_intervals(p1), iv.as_intervals(p2)
        kept = iv.measure(iv.subtract(a, b))
        shared = iv.measure(iv.intersect(a, b))
        assert kept + shared == pytest.approx(iv.measure(a))

    @given(interval_lists, interval_lists)
    @settings(max_examples=100, deadline=None)
    def test_subtract_disjoint_from_b(self, p1, p2):
        a, b = iv.as_intervals(p1), iv.as_intervals(p2)
        out = iv.subtract(a, b)
        assert iv.measure(iv.intersect(out, b)) == pytest.approx(0.0)
