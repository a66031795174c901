"""Unit and property tests for the interval-set algebra."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.intervals import IntervalSet


class TestAdd:
    def test_empty(self):
        s = IntervalSet()
        assert not s
        assert list(s) == []

    def test_single(self):
        s = IntervalSet([(3, 7)])
        assert list(s) == [(3, 7)]
        assert s.total() == 4

    def test_zero_length_ignored(self):
        s = IntervalSet([(5, 5)])
        assert not s

    def test_merge_overlapping(self):
        s = IntervalSet([(0, 5), (3, 8)])
        assert list(s) == [(0, 8)]

    def test_merge_adjacent(self):
        s = IntervalSet([(0, 5), (5, 8)])
        assert list(s) == [(0, 8)]

    def test_disjoint_kept_sorted(self):
        s = IntervalSet([(10, 12), (0, 2), (5, 6)])
        assert list(s) == [(0, 2), (5, 6), (10, 12)]

    def test_bridge_merges_three(self):
        s = IntervalSet([(0, 2), (4, 6), (8, 10)])
        s.add(1, 9)
        assert list(s) == [(0, 10)]

    def test_add_inside_existing_noop(self):
        s = IntervalSet([(0, 10)])
        s.add(3, 4)
        assert list(s) == [(0, 10)]

    def test_log_style_adds_touch_only_the_last_interval(self):
        s = IntervalSet([(0, 2), (10, 20)])
        s.add(20, 30)  # extends the last
        s.add(15, 25)  # inside the last
        s.add(10, 35)  # same start, longer
        assert list(s) == [(0, 2), (10, 35)]
        s.add(40, 50)  # past the last: appended
        s.add(36, 38)  # before the last but after the rest: the general path
        assert list(s) == [(0, 2), (10, 35), (36, 38), (40, 50)]
        s.add(2, 10)  # bridges, general path
        assert list(s) == [(0, 35), (36, 38), (40, 50)]


class TestQueries:
    def test_contains_full(self):
        s = IntervalSet([(0, 10)])
        assert s.contains(0, 10)
        assert s.contains(3, 7)
        assert s.contains(4, 4)  # empty range vacuously contained

    def test_contains_across_gap_false(self):
        s = IntervalSet([(0, 5), (6, 10)])
        assert not s.contains(3, 8)

    def test_gaps_full_range_when_empty(self):
        s = IntervalSet()
        assert s.gaps(3, 9) == [(3, 9)]

    def test_gaps_none_when_covered(self):
        s = IntervalSet([(0, 100)])
        assert s.gaps(10, 90) == []

    def test_gaps_mixed(self):
        s = IntervalSet([(2, 4), (6, 8)])
        assert s.gaps(0, 10) == [(0, 2), (4, 6), (8, 10)]

    def test_span(self):
        ivs = list(IntervalSet([(9, 11), (3, 5)]))
        assert (ivs[0][0], ivs[-1][1]) == (3, 11)  # sorted: the ends are the hull

    def test_is_single_interval(self):
        assert IntervalSet().is_single_interval()
        assert IntervalSet([(0, 4)]).is_single_interval()
        assert not IntervalSet([(0, 4), (6, 8)]).is_single_interval()

    def test_eq(self):
        assert list(IntervalSet([(0, 2), (2, 4)])) == list(IntervalSet([(0, 4)]))
        assert list(IntervalSet([(0, 4)])) != list(IntervalSet([(0, 5)]))


# --------------------------------------------------------------------------- #
# property tests against a brute-force bitmap model
# --------------------------------------------------------------------------- #
N = 64

span = st.tuples(st.integers(0, N), st.integers(0, N))


def apply_adds(spans):
    s = IntervalSet()
    bitmap = np.zeros(N, dtype=bool)
    for a, b in spans:
        lo, hi = min(a, b), max(a, b)
        s.add(lo, hi)
        bitmap[lo:hi] = True
    return s, bitmap


@settings(max_examples=200)
@given(st.lists(span, max_size=20))
def test_matches_bitmap_model(spans):
    s, bitmap = apply_adds(spans)
    model = np.zeros(N, dtype=bool)
    for lo, hi in s:
        assert 0 <= lo < hi <= N
        model[lo:hi] = True
    assert np.array_equal(model, bitmap)
    assert s.total() == int(bitmap.sum())


@settings(max_examples=200)
@given(st.lists(span, max_size=14), st.integers(0, N), st.integers(0, N))
def test_gaps_and_contains_match_bitmap(spans, a, b):
    """``gaps`` lists the uncovered runs of ``[lo, hi)``, maximal and in order."""
    s, bitmap = apply_adds(spans)
    lo, hi = min(a, b), max(a, b)
    expected = []
    for i in range(lo, hi):
        if bitmap[i]:
            continue
        if expected and expected[-1][1] == i:
            expected[-1] = (expected[-1][0], i + 1)
        else:
            expected.append((i, i + 1))
    assert s.gaps(lo, hi) == expected
    assert s.contains(lo, hi) == bool(bitmap[lo:hi].all())


@settings(max_examples=200)
@given(st.lists(span, max_size=14))
def test_canonical_form(spans):
    """Intervals are always sorted, disjoint and non-adjacent."""
    s, _ = apply_adds(spans)
    ivs = list(s)
    for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
        assert b1 < a2, f"not coalesced: [{a1},{b1}) [{a2},{b2})"
    for a1, b1 in ivs:
        assert a1 < b1
