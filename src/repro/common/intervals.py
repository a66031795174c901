"""Half-open interval arithmetic over byte offsets.

The mirroring module and the modification manager reason constantly about
which byte ranges of an image are present locally, dirty, or missing. This
module provides a small, well-tested algebra of **sorted, coalesced sets of
half-open intervals** ``[lo, hi)`` used by those components.

:class:`IntervalSet` is immutable-by-discipline: mutating operations return
``None`` and keep the internal list sorted and disjoint (adjacent intervals
are merged), so the canonical-form invariant always holds. Property-based
tests in ``tests/common/test_intervals.py`` verify the algebra against a
brute-force bitmap model.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Tuple

Interval = Tuple[int, int]


def clamp(lo: int, hi: int, bound_lo: int, bound_hi: int) -> Interval:
    """Intersect ``[lo, hi)`` with ``[bound_lo, bound_hi)`` (may be empty)."""
    return max(lo, bound_lo), min(hi, bound_hi)


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

    def remove(self, lo: int, hi: int) -> None:
        """Delete ``[lo, hi)`` from the set (splitting intervals as needed)."""
        if lo >= hi or not self._ivs:
            return
        ivs = self._ivs
        i, j = self._overlap_window(lo, hi)
        if i == j:
            return
        repl: List[Interval] = []
        a0, _ = ivs[i]
        if a0 < lo:
            repl.append((a0, lo))
        _, b1 = ivs[j - 1]
        if b1 > hi:
            repl.append((hi, b1))
        ivs[i:j] = repl

    def _overlap_window(self, lo: int, hi: int) -> Tuple[int, int]:
        """Index range ``[i, j)`` of intervals overlapping ``[lo, hi)``."""
        ivs = self._ivs
        k = bisect_left(ivs, (lo,))
        i = k - 1 if k > 0 and ivs[k - 1][1] > lo else k
        j = bisect_left(ivs, (hi,), i)
        return i, j

    def clear(self) -> None:
        self._ivs.clear()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def contains(self, lo: int, hi: int) -> bool:
        """True iff every offset of ``[lo, hi)`` is in the set."""
        if lo >= hi:
            return True
        i = bisect_right(self._ivs, (lo, float("inf"))) - 1
        return i >= 0 and self._ivs[i][0] <= lo and self._ivs[i][1] >= hi

    def overlaps(self, lo: int, hi: int) -> bool:
        """True iff any offset of ``[lo, hi)`` is in the set."""
        if lo >= hi:
            return False
        i = bisect_right(self._ivs, (lo, float("inf"))) - 1
        if i >= 0 and self._ivs[i][1] > lo:
            return True
        i += 1
        return i < len(self._ivs) and self._ivs[i][0] < hi

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

    def intersect(self, lo: int, hi: int) -> List[Interval]:
        """Sub-intervals of ``[lo, hi)`` covered by the set, in order."""
        out: List[Interval] = []
        if lo >= hi:
            return out
        i, j = self._overlap_window(lo, hi)
        for a, b in self._ivs[i:j]:
            c_lo = a if a > lo else lo
            c_hi = b if b < hi else hi
            if c_lo < c_hi:
                out.append((c_lo, c_hi))
        return out

    def total(self) -> int:
        """Total number of covered bytes."""
        return sum(b - a for a, b in self._ivs)

    def span(self) -> Interval:
        """Smallest ``[lo, hi)`` containing the whole set (``(0, 0)`` if empty)."""
        if not self._ivs:
            return (0, 0)
        return (self._ivs[0][0], self._ivs[-1][1])

    def is_single_interval(self) -> bool:
        """True iff the set is empty or one contiguous interval.

        This is the fragmentation invariant the paper's second mirroring
        strategy maintains *per chunk* (§3.3).
        """
        return len(self._ivs) <= 1

    def copy(self) -> "IntervalSet":
        new = IntervalSet()
        new._ivs = list(self._ivs)
        return new

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Interval]:
        return iter(self._ivs)

    def __len__(self) -> int:
        return len(self._ivs)

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._ivs == other._ivs

    def __repr__(self) -> str:
        body = ", ".join(f"[{a},{b})" for a, b in self._ivs)
        return f"IntervalSet({body})"
