"""The local modification manager (paper §3.3, §4.2).

Pure state machine tracking, for one mirrored VM image, *what is available
locally* and *what has been modified locally*. It implements the planning
side of the paper's two mirroring strategies:

**Strategy 1 — chunk-granularity prefetch.** A read touching any chunk whose
requested part is not fully mirrored triggers a remote fetch of the **full
minimal set of chunks covering the request**. This trades a little extra
network traffic for far fewer small remote reads and better performance on
correlated reads.

**Strategy 2 — single contiguous region per chunk.** A local write that
would leave a *gap* between the already-mirrored region of a chunk and the
newly written region first triggers a remote read filling the gap. As a
result, the mirrored part of every chunk is always **one contiguous
interval**, so per-chunk bookkeeping is O(1) and total fragmentation overhead
is bounded by the chunk count (the paper's stated worst case).

The manager only *plans*; actually moving bytes is the translator's job.
Plans are expressed in absolute image offsets.

State is serializable (``to_state`` / ``from_state``) because the paper's
FUSE module persists it next to the local file on close and restores it on
re-open (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..common.errors import MirrorStateError
from ..common.intervals import IntervalSet

Interval = Tuple[int, int]


@dataclass
class ReadPlan:
    """What a read needs before it can be served locally.

    ``fetch_chunks`` — chunk indices to fetch in full from the repository
    (strategy 1); ``fill_gaps`` — for each such chunk, the sub-intervals that
    must actually be *applied* to the local mirror (parts already mirrored —
    including dirty local writes — must not be overwritten).
    """

    fetch_chunks: List[int]
    fill_gaps: Dict[int, List[Interval]]

    @property
    def is_local(self) -> bool:
        return not self.fetch_chunks


@dataclass
class WritePlan:
    """What a write needs: gaps to remote-read first (strategy 2).

    ``gap_fills`` lists ``(chunk_index, (lo, hi))`` intervals that must be
    fetched and applied before the write so the chunk's mirrored region
    stays contiguous.
    """

    gap_fills: List[Tuple[int, Interval]]


class ModificationManager:
    """Tracks mirrored and dirty state of one image at chunk granularity.

    Strategy 2 *is* the representation: the mirrored part of chunk ``i`` is
    ``[_m_lo[i], _m_hi[i])`` in two flat integer lists (``(0, 0)`` when empty).
    A chunk whose mirror really fragments — legal only with
    ``enforce_contiguity=False``, or transiently between a non-adjacent
    :meth:`record_fill` and the invariant check that rejects it — keeps its
    exact ranges in the overflow map ``_frag`` and their hull in the two
    lists; the map is empty in every run that follows the plans.
    """

    def __init__(self, image_size: int, chunk_size: int, enforce_contiguity: bool = True):
        if image_size <= 0 or chunk_size <= 0:
            raise MirrorStateError("image and chunk sizes must be positive")
        self.image_size = image_size
        self.chunk_size = chunk_size
        self.n_chunks = -(-image_size // chunk_size)
        #: strategy-2 invariant enforcement; disabled only by the
        #: no-prefetch ablation, where reads legitimately fragment chunks
        self.enforce_contiguity = enforce_contiguity
        #: per chunk: hull of the locally available bytes (absolute offsets)
        self._m_lo: List[int] = [0] * self.n_chunks
        self._m_hi: List[int] = [0] * self.n_chunks
        #: overflow: exact ranges of the chunks whose mirror is not one interval
        self._frag: Dict[int, IntervalSet] = {}
        #: per chunk: locally written byte ranges (absolute offsets)
        self._dirty: Dict[int, IntervalSet] = {}

    # ------------------------------------------------------------------ #
    # geometry helpers
    # ------------------------------------------------------------------ #
    def chunk_bounds(self, index: int) -> Interval:
        lo = index * self.chunk_size
        return lo, min(lo + self.chunk_size, self.image_size)

    def chunks_overlapping(self, lo: int, hi: int) -> range:
        if lo < 0 or hi > self.image_size or lo > hi:
            raise MirrorStateError(
                f"range [{lo},{hi}) outside image of size {self.image_size}"
            )
        if lo == hi:
            return range(0, 0)
        return range(lo // self.chunk_size, -(-hi // self.chunk_size))

    def _checked_bounds(self, idx: int) -> Interval:
        """:meth:`chunk_bounds`, refusing an index the flat lists would wrap."""
        if not 0 <= idx < self.n_chunks:
            raise MirrorStateError(f"chunk {idx} outside image of {self.n_chunks} chunks")
        return self.chunk_bounds(idx)

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def unmirrored(self, idx: int, lo: int, hi: int) -> List[Interval]:
        """Parts of ``[lo, hi)``, inside chunk ``idx``, that are not mirrored.

        The plans below are built from it; the translator asks it again when
        fetched bytes arrive, because a plan is as old as its fetch.
        """
        if idx in self._frag:
            return self._frag[idx].gaps(lo, hi)
        a, b = self._m_lo[idx], self._m_hi[idx]
        if b <= lo or hi <= a:  # an empty mirror is (0, 0): below every window
            return [(lo, hi)]
        out: List[Interval] = []
        if lo < a:
            out.append((lo, a))
        if b < hi:
            out.append((b, hi))
        return out

    def plan_read(self, lo: int, hi: int) -> ReadPlan:
        """Strategy 1: full-chunk fetches covering the non-mirrored parts."""
        fetch: List[int] = []
        gaps: Dict[int, List[Interval]] = {}
        size, cs = self.image_size, self.chunk_size
        m_lo, m_hi, frag = self._m_lo, self._m_hi, self._frag
        for idx in self.chunks_overlapping(lo, hi):
            c_lo = idx * cs
            c_hi = min(c_lo + cs, size)
            w_lo = lo if lo > c_lo else c_lo
            w_hi = hi if hi < c_hi else c_hi
            # inside the hull, and inside the exact ranges if any chunk has them
            if m_lo[idx] <= w_lo and w_hi <= m_hi[idx] and not (
                frag and self.unmirrored(idx, w_lo, w_hi)
            ):
                continue
            fetch.append(idx)
            gaps[idx] = self.unmirrored(idx, c_lo, c_hi)
        return ReadPlan(fetch, gaps)

    def plan_write(self, lo: int, hi: int) -> WritePlan:
        """Strategy 2: gap reads keeping each chunk's mirror contiguous."""
        fills: List[Tuple[int, Interval]] = []
        m_lo, m_hi = self._m_lo, self._m_hi
        for idx in self.chunks_overlapping(lo, hi):
            a, b = m_lo[idx], m_hi[idx]
            # The hull lies inside the chunk, so a write that starts past it
            # (or ends before it) also starts (ends) inside the chunk.
            if a == b:
                continue  # nothing mirrored yet: the write itself is contiguous
            if lo > b:
                fills.append((idx, (b, lo)))
            elif hi < a:
                fills.append((idx, (hi, a)))
            # overlap/adjacency: union already contiguous, nothing to fill
        return WritePlan(fills)

    def plan_read_exact(self, lo: int, hi: int) -> Dict[int, List[Interval]]:
        """Ablation of strategy 1: fetch only the missing parts of the request.

        Returns, per chunk, the sub-intervals of ``[lo, hi)`` that are not
        mirrored — no full-chunk prefetch. Used to quantify what the paper's
        chunk-granularity fetching buys.
        """
        out: Dict[int, List[Interval]] = {}
        cs = self.chunk_size
        for idx in self.chunks_overlapping(lo, hi):
            gaps = self.unmirrored(idx, max(lo, idx * cs), min(hi, (idx + 1) * cs))
            if gaps:
                out[idx] = gaps
        return out

    def plan_complete_chunk(self, idx: int) -> List[Interval]:
        """Gaps to fetch so chunk ``idx`` becomes fully mirrored (COMMIT prep)."""
        return self.unmirrored(idx, *self._checked_bounds(idx))

    # ------------------------------------------------------------------ #
    # state transitions
    # ------------------------------------------------------------------ #
    def record_fetch(self, idx: int) -> None:
        """A full-chunk fetch completed: the chunk is now fully mirrored."""
        self._m_lo[idx], self._m_hi[idx] = self._checked_bounds(idx)
        if self._frag:
            self._frag.pop(idx, None)

    def record_fill(self, idx: int, lo: int, hi: int) -> None:
        """A gap fill ``[lo, hi)`` of chunk ``idx`` was applied locally."""
        c_lo, c_hi = self._checked_bounds(idx)
        if lo < c_lo or hi > c_hi:
            raise MirrorStateError(f"fill [{lo},{hi}) outside chunk {idx}")
        if lo < hi:
            self._add_mirrored(idx, lo, hi)

    def record_write(self, lo: int, hi: int) -> None:
        """A local write ``[lo, hi)`` completed (gap fills already applied)."""
        cs, dirty, frag = self.chunk_size, self._dirty, self._frag
        for idx in self.chunks_overlapping(lo, hi):
            c_lo = idx * cs
            w_lo = lo if lo > c_lo else c_lo
            w_hi = hi if hi < c_lo + cs else c_lo + cs
            self._add_mirrored(idx, w_lo, w_hi)
            ranges = dirty.get(idx)
            if ranges is None:
                ranges = dirty[idx] = IntervalSet()
            ranges.add(w_lo, w_hi)
            if frag:
                self._assert_contiguous(idx)

    def _add_mirrored(self, idx: int, lo: int, hi: int) -> None:
        """Union the non-empty ``[lo, hi)``, inside chunk ``idx``, into its mirror."""
        a, b = self._m_lo[idx], self._m_hi[idx]
        if self._frag and idx in self._frag:
            ranges = self._frag[idx]
            ranges.add(lo, hi)
            if ranges.is_single_interval():
                del self._frag[idx]  # healed
        elif a < b and (hi < a or b < lo):
            self._frag[idx] = IntervalSet(((a, b), (lo, hi)))
        if a == b or lo < a:
            self._m_lo[idx] = lo
        if a == b or hi > b:
            self._m_hi[idx] = hi

    def _assert_contiguous(self, idx: int) -> None:
        if self.enforce_contiguity and idx in self._frag:
            raise MirrorStateError(
                f"strategy-2 invariant violated: chunk {idx} mirror {self._frag[idx]!r}"
            )

    def clear_dirty(self) -> Dict[int, IntervalSet]:
        """Forget every dirty range, handing them to the caller.

        COMMIT calls this at the instant it starts collecting: what it took is
        what it publishes, so a range dirtied while the COMMIT is in flight
        opens a fresh entry and belongs to the next one. A COMMIT that fails
        gives its ranges back with :meth:`restore_dirty`.
        """
        taken, self._dirty = self._dirty, {}
        return taken

    def restore_dirty(self, taken: Dict[int, Iterable[Interval]]) -> None:
        """The COMMIT that took ``taken`` published nothing: dirty again."""
        for idx, ranges in taken.items():
            mine = self._dirty.setdefault(idx, IntervalSet())
            for lo, hi in ranges:
                mine.add(lo, hi)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def is_mirrored(self, lo: int, hi: int) -> bool:
        return not self.plan_read_exact(lo, hi)

    def dirty_bytes(self) -> int:
        return sum(s.total() for s in self._dirty.values())

    def mirrored_bytes(self) -> int:
        hulls = sum(self._m_hi) - sum(self._m_lo)
        holes = sum(
            self._m_hi[idx] - self._m_lo[idx] - s.total() for idx, s in self._frag.items()
        )
        return hulls - holes

    def mirrored_interval(self, idx: int) -> Interval:
        """Hull of chunk ``idx``'s mirror; ``(0, 0)`` when nothing is mirrored."""
        self._checked_bounds(idx)
        return self._m_lo[idx], self._m_hi[idx]

    def mirrored_intervals(self, idx: int) -> List[Interval]:
        """Exact mirrored ranges of chunk ``idx``: one, unless it fragmented."""
        if idx in self._frag:
            return list(self._frag[idx])
        a, b = self.mirrored_interval(idx)
        return [(a, b)] if a < b else []

    # ------------------------------------------------------------------ #
    # persistence (the "extra metadata" written next to the local file)
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict:
        return {
            "image_size": self.image_size,
            "chunk_size": self.chunk_size,
            "mirrored": {
                idx: self.mirrored_intervals(idx)
                for idx in range(self.n_chunks)
                if self._m_lo[idx] < self._m_hi[idx]
            },
            "dirty": {idx: list(s) for idx, s in self._dirty.items() if s},
        }

    @classmethod
    def from_state(cls, state: dict, enforce_contiguity: bool = True) -> "ModificationManager":
        mgr = cls(state["image_size"], state["chunk_size"], enforce_contiguity)
        for idx, ivs in state["mirrored"].items():
            for lo, hi in ivs:
                mgr.record_fill(int(idx), lo, hi)
            mgr._assert_contiguous(int(idx))
        mgr.restore_dirty({int(idx): ivs for idx, ivs in state["dirty"].items()})
        return mgr
