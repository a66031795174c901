"""``IntervalSet``-per-chunk reference for the modification manager (test-only).

:class:`repro.core.modmanager.ModificationManager` keeps the mirrored part of
a chunk as two integers and moves a chunk that really fragments to a small
overflow map. Its correctness claim is *equality* with the obvious general
design, which lives here: one :class:`IntervalSet` per chunk, every plan and
query answered by interval algebra, the strategy-2 invariant asserted after
the fact. This is the manager the repository shipped before the flat
representation, plus the three things the production one gained in the same
change so the two can be driven by one sequence: ``from_state`` takes
``enforce_contiguity``, ``clear_dirty`` returns what it cleared (with
``restore_dirty`` as its inverse) and ``mirrored_intervals`` /
``dirty_intervals`` expose the exact ranges.

``tests/core/test_modmanager_equivalence.py`` compares every plan, query,
serialised state and ``MirrorStateError`` instant of the two.
"""

from typing import Dict, List, Tuple

from repro.common.errors import MirrorStateError
from repro.common.intervals import IntervalSet
from repro.core.modmanager import ReadPlan, WritePlan

Interval = Tuple[int, int]


class ReferenceModificationManager:
    """One ``IntervalSet`` per chunk for the mirror, one for the dirty ranges."""

    def __init__(self, image_size: int, chunk_size: int, enforce_contiguity: bool = True):
        if image_size <= 0 or chunk_size <= 0:
            raise MirrorStateError("image and chunk sizes must be positive")
        self.image_size = image_size
        self.chunk_size = chunk_size
        self.n_chunks = -(-image_size // chunk_size)
        #: strategy-2 invariant enforcement; disabled only by the
        #: no-prefetch ablation, where reads legitimately fragment chunks
        self.enforce_contiguity = enforce_contiguity
        #: per chunk: locally available byte range (absolute offsets).
        #: Invariant: each is empty or a single interval (strategy 2).
        self._mirrored: Dict[int, IntervalSet] = {}
        #: per chunk: locally written byte ranges (absolute offsets)
        self._dirty: Dict[int, IntervalSet] = {}

    # ------------------------------------------------------------------ #
    # geometry helpers
    # ------------------------------------------------------------------ #
    def chunk_bounds(self, index: int) -> Interval:
        lo = index * self.chunk_size
        return lo, min(lo + self.chunk_size, self.image_size)

    def chunks_overlapping(self, lo: int, hi: int) -> range:
        self._check_range(lo, hi)
        if lo >= hi:
            return range(0, 0)
        return range(lo // self.chunk_size, -(-hi // self.chunk_size))

    def _check_range(self, lo: int, hi: int) -> None:
        if lo < 0 or hi > self.image_size or lo > hi:
            raise MirrorStateError(
                f"range [{lo},{hi}) outside image of size {self.image_size}"
            )

    def _mirror_of(self, idx: int) -> IntervalSet:
        s = self._mirrored.get(idx)
        if s is None:
            s = IntervalSet()
            self._mirrored[idx] = s
        return s

    def _dirty_of(self, idx: int) -> IntervalSet:
        s = self._dirty.get(idx)
        if s is None:
            s = IntervalSet()
            self._dirty[idx] = s
        return s

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def unmirrored(self, idx: int, lo: int, hi: int) -> List[Interval]:
        """Parts of ``[lo, hi)``, inside chunk ``idx``, that are not mirrored."""
        mirror = self._mirrored.get(idx)
        return mirror.gaps(lo, hi) if mirror is not None else [(lo, hi)]

    def plan_read(self, lo: int, hi: int) -> ReadPlan:
        """Strategy 1: full-chunk fetches covering the non-mirrored parts."""
        fetch: List[int] = []
        gaps: Dict[int, List[Interval]] = {}
        for idx in self.chunks_overlapping(lo, hi):
            c_lo, c_hi = self.chunk_bounds(idx)
            w_lo, w_hi = max(lo, c_lo), min(hi, c_hi)
            mirror = self._mirrored.get(idx)
            if mirror is not None and mirror.contains(w_lo, w_hi):
                continue
            fetch.append(idx)
            gaps[idx] = (
                mirror.gaps(c_lo, c_hi) if mirror is not None else [(c_lo, c_hi)]
            )
        return ReadPlan(fetch, gaps)

    def plan_write(self, lo: int, hi: int) -> WritePlan:
        """Strategy 2: gap reads keeping each chunk's mirror contiguous."""
        self._check_range(lo, hi)
        fills: List[Tuple[int, Interval]] = []
        for idx in self.chunks_overlapping(lo, hi):
            c_lo, c_hi = self.chunk_bounds(idx)
            w_lo, w_hi = max(lo, c_lo), min(hi, c_hi)
            mirror = self._mirrored.get(idx)
            if mirror is None or not mirror:
                continue  # nothing mirrored yet: the write itself is contiguous
            ivs = list(mirror)
            m_lo, m_hi = ivs[0][0], ivs[-1][1]
            if w_lo > m_hi:
                fills.append((idx, (m_hi, w_lo)))
            elif w_hi < m_lo:
                fills.append((idx, (w_hi, m_lo)))
            # overlap/adjacency: union already contiguous, nothing to fill
        return WritePlan(fills)

    def plan_read_exact(self, lo: int, hi: int) -> Dict[int, List[Interval]]:
        """Ablation of strategy 1: fetch only the missing parts of the request.

        Returns, per chunk, the sub-intervals of ``[lo, hi)`` that are not
        mirrored — no full-chunk prefetch. Used to quantify what the paper's
        chunk-granularity fetching buys.
        """
        out: Dict[int, List[Interval]] = {}
        for idx in self.chunks_overlapping(lo, hi):
            c_lo, c_hi = self.chunk_bounds(idx)
            w_lo, w_hi = max(lo, c_lo), min(hi, c_hi)
            mirror = self._mirrored.get(idx)
            gaps = mirror.gaps(w_lo, w_hi) if mirror is not None else [(w_lo, w_hi)]
            if gaps:
                out[idx] = gaps
        return out

    def plan_complete_chunk(self, idx: int) -> List[Interval]:
        """Gaps to fetch so chunk ``idx`` becomes fully mirrored (COMMIT prep)."""
        c_lo, c_hi = self.chunk_bounds(idx)
        mirror = self._mirrored.get(idx)
        if mirror is None:
            return [(c_lo, c_hi)]
        return mirror.gaps(c_lo, c_hi)

    # ------------------------------------------------------------------ #
    # state transitions
    # ------------------------------------------------------------------ #
    def record_fetch(self, idx: int) -> None:
        """A full-chunk fetch completed: the chunk is now fully mirrored."""
        c_lo, c_hi = self.chunk_bounds(idx)
        self._mirror_of(idx).add(c_lo, c_hi)
        self._assert_contiguous(idx)

    def record_fill(self, idx: int, lo: int, hi: int) -> None:
        """A gap fill ``[lo, hi)`` of chunk ``idx`` was applied locally."""
        c_lo, c_hi = self.chunk_bounds(idx)
        if lo < c_lo or hi > c_hi:
            raise MirrorStateError(f"fill [{lo},{hi}) outside chunk {idx}")
        self._mirror_of(idx).add(lo, hi)

    def record_write(self, lo: int, hi: int) -> None:
        """A local write ``[lo, hi)`` completed (gap fills already applied)."""
        self._check_range(lo, hi)
        for idx in self.chunks_overlapping(lo, hi):
            c_lo, c_hi = self.chunk_bounds(idx)
            w_lo, w_hi = max(lo, c_lo), min(hi, c_hi)
            self._mirror_of(idx).add(w_lo, w_hi)
            self._dirty_of(idx).add(w_lo, w_hi)
            self._assert_contiguous(idx)

    def clear_dirty(self) -> Dict[int, IntervalSet]:
        taken, self._dirty = self._dirty, {}
        return taken

    def restore_dirty(self, taken) -> None:
        for idx, ranges in taken.items():
            for lo, hi in ranges:
                self._dirty_of(idx).add(lo, hi)

    def _assert_contiguous(self, idx: int) -> None:
        if not self.enforce_contiguity:
            return
        mirror = self._mirrored.get(idx)
        if mirror is not None and not mirror.is_single_interval():
            raise MirrorStateError(
                f"strategy-2 invariant violated: chunk {idx} mirror {mirror!r}"
            )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def is_mirrored(self, lo: int, hi: int) -> bool:
        for idx in self.chunks_overlapping(lo, hi):
            c_lo, c_hi = self.chunk_bounds(idx)
            w_lo, w_hi = max(lo, c_lo), min(hi, c_hi)
            mirror = self._mirrored.get(idx)
            if mirror is None or not mirror.contains(w_lo, w_hi):
                return False
        return True

    def dirty_chunks(self) -> List[int]:
        return sorted(idx for idx, s in self._dirty.items() if s)

    def dirty_bytes(self) -> int:
        return sum(s.total() for s in self._dirty.values())

    def mirrored_bytes(self) -> int:
        return sum(s.total() for s in self._mirrored.values())

    def mirrored_interval(self, idx: int) -> Interval:
        ivs = list(self._mirrored.get(idx, ()))
        return (ivs[0][0], ivs[-1][1]) if ivs else (0, 0)

    def mirrored_intervals(self, idx: int) -> List[Interval]:
        return list(self._mirrored.get(idx, ()))

    def dirty_intervals(self, idx: int) -> List[Interval]:
        return list(self._dirty.get(idx, ()))

    # ------------------------------------------------------------------ #
    # persistence (the "extra metadata" written next to the local file)
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict:
        return {
            "image_size": self.image_size,
            "chunk_size": self.chunk_size,
            "mirrored": {idx: list(s) for idx, s in self._mirrored.items() if s},
            "dirty": {idx: list(s) for idx, s in self._dirty.items() if s},
        }

    @classmethod
    def from_state(cls, state: dict, enforce_contiguity: bool = True):
        mgr = cls(state["image_size"], state["chunk_size"], enforce_contiguity)
        for idx, ivs in state["mirrored"].items():
            for lo, hi in ivs:
                mgr._mirror_of(int(idx)).add(lo, hi)
            mgr._assert_contiguous(int(idx))
        for idx, ivs in state["dirty"].items():
            for lo, hi in ivs:
                mgr._dirty_of(int(idx)).add(lo, hi)
        return mgr
