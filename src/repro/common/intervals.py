"""Half-open interval arithmetic over byte offsets.

The mirroring module and the modification manager reason constantly about
which byte ranges of an image are present locally, dirty, or missing. This
module provides a small, well-tested algebra of **sorted, coalesced sets of
half-open intervals** ``[lo, hi)`` used by those components.

:class:`IntervalSet` only grows: :meth:`~IntervalSet.add` keeps the
internal list sorted and disjoint (adjacent intervals are merged), so the
canonical-form invariant always holds. Property-based
tests in ``tests/common/test_intervals.py`` verify the algebra against a
brute-force bitmap model.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Tuple

Interval = Tuple[int, int]


class IntervalSet:
    """A set of byte offsets stored as sorted disjoint half-open intervals."""

    __slots__ = ("_ivs",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        self._ivs: List[Interval] = []
        for lo, hi in intervals:
            self.add(lo, hi)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, lo: int, hi: int) -> None:
        """Insert ``[lo, hi)``, merging with overlapping/adjacent intervals."""
        if lo >= hi:
            return
        ivs = self._ivs
        if not ivs:
            ivs.append((lo, hi))
            return
        last_lo, last_hi = ivs[-1]
        if lo >= last_lo:
            # Log-style writers only ever touch the last interval: nothing
            # before it reaches ``last_lo``, so append, extend or absorb.
            if lo > last_hi:
                ivs.append((lo, hi))
            elif hi > last_hi:
                ivs[-1] = (last_lo, hi)
            return
        # Find insertion window: all intervals whose end >= lo and start <= hi
        # are merged with the new one.
        i = bisect_right(ivs, (lo, lo)) - 1
        if i >= 0 and ivs[i][1] >= lo:
            start = i
        else:
            start = i + 1
        j = start
        n = len(ivs)
        new_lo, new_hi = lo, hi
        while j < n and ivs[j][0] <= hi:
            new_lo = min(new_lo, ivs[j][0])
            new_hi = max(new_hi, ivs[j][1])
            j += 1
        ivs[start:j] = [(new_lo, new_hi)]

    def _overlap_window(self, lo: int, hi: int) -> Tuple[int, int]:
        """Index range ``[i, j)`` of intervals overlapping ``[lo, hi)``."""
        ivs = self._ivs
        k = bisect_left(ivs, (lo,))
        i = k - 1 if k > 0 and ivs[k - 1][1] > lo else k
        j = bisect_left(ivs, (hi,), i)
        return i, j

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def contains(self, lo: int, hi: int) -> bool:
        """True iff every offset of ``[lo, hi)`` is in the set."""
        if lo >= hi:
            return True
        i = bisect_right(self._ivs, (lo, float("inf"))) - 1
        return i >= 0 and self._ivs[i][0] <= lo and self._ivs[i][1] >= hi

    def gaps(self, lo: int, hi: int) -> List[Interval]:
        """Sub-intervals of ``[lo, hi)`` *not* covered by the set, in order.

        Bisects to the first overlapping interval, so the cost is
        proportional to the overlap count, not the set size.
        """
        out: List[Interval] = []
        if lo >= hi:
            return out
        i, j = self._overlap_window(lo, hi)
        cursor = lo
        for a, b in self._ivs[i:j]:
            if a > cursor:
                out.append((cursor, a))
            if b > cursor:
                cursor = b
            if cursor >= hi:
                break
        if cursor < hi:
            out.append((cursor, hi))
        return out

    def total(self) -> int:
        """Total number of covered bytes."""
        return sum(b - a for a, b in self._ivs)

    def is_single_interval(self) -> bool:
        """True iff the set is empty or one contiguous interval.

        This is the fragmentation invariant the paper's second mirroring
        strategy maintains *per chunk* (§3.3).
        """
        return len(self._ivs) <= 1

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Interval]:
        return iter(self._ivs)

    def __len__(self) -> int:
        return len(self._ivs)

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __repr__(self) -> str:
        body = ", ".join(f"[{a},{b})" for a, b in self._ivs)
        return f"IntervalSet({body})"
