"""Access-pattern-guided prefetching (the paper's §7 future work).

    "With respect to multideployment, one possible optimization is to build
    a prefetching scheme based on previous experience with the access
    pattern."

Every multideployment boots the *same* image through the same code path, so
the chunk-access order observed on one instance is an excellent predictor
for all others. Two pieces:

* :class:`AccessProfile` — a recorder attached to a mirror handle that logs
  the order in which chunk indices are first touched. Profiles merge across
  instances (order by median first-access rank).
* :class:`Prefetcher` — a background process on a freshly opened handle
  that walks the profile ahead of the boot, fetching predicted chunks with
  a bounded look-ahead window so it never floods the repository: it pauses
  whenever it is ``window`` chunks ahead of what the boot has consumed.

The ``ablation_prefetch`` row of ``benchmarks/grids.py`` quantifies the
boot-time reduction; correctness tests live in
``tests/core/test_prefetch_profile.py``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generator, List

from ..common.errors import MirrorStateError
from .vfs import MirrorHandle


class AccessProfile:
    """Observed chunk-access order of an image's boot phase."""

    def __init__(self, chunk_size: int):
        self.chunk_size = chunk_size
        #: per chunk index: ranks of its first access across recordings
        self._ranks: Dict[int, List[int]] = defaultdict(list)
        self.recordings = 0

    # ------------------------------------------------------------------ #
    def record_run(self, first_access_order: List[int]) -> None:
        """Fold one instance's first-access order into the profile."""
        for rank, idx in enumerate(first_access_order):
            self._ranks[idx].append(rank)
        self.recordings += 1

    def predicted_order(self) -> List[int]:
        """Chunk indices ordered by median first-access rank."""

        def median(values: List[int]) -> float:
            s = sorted(values)
            mid = len(s) // 2
            return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2

        return sorted(self._ranks, key=lambda idx: (median(self._ranks[idx]), idx))


class ProfileRecorder:
    """Wraps a handle to log the first-access order of chunks."""

    def __init__(self, handle: MirrorHandle):
        self.handle = handle
        self._seen: set[int] = set()
        self.order: List[int] = []

    def read(self, offset: int, nbytes: int) -> Generator:
        for idx in self.handle.modmgr.chunks_overlapping(offset, offset + nbytes):
            if idx not in self._seen:
                self._seen.add(idx)
                self.order.append(idx)
        data = yield from self.handle.read(offset, nbytes)
        return data

    def write(self, offset: int, payload) -> Generator:
        yield from self.handle.write(offset, payload)

    def finish_into(self, profile: AccessProfile) -> None:
        profile.record_run(self.order)


class Prefetcher:
    """Background chunk prefetch driven by an :class:`AccessProfile`."""

    def __init__(self, handle: MirrorHandle, profile: AccessProfile, window: int = 16):
        if profile.chunk_size != handle.chunk_size:
            raise MirrorStateError("profile chunk size does not match the image")
        if window < 1:
            raise MirrorStateError("prefetch window must be >= 1")
        self.handle = handle
        self.profile = profile
        self.window = window
        self.fetched = 0
        self._stopped = False
        self._process = None

    # ------------------------------------------------------------------ #
    def start(self):
        """Spawn the background prefetch process; returns it."""
        env = self.handle.vfs.host.env
        self._process = env.process(self._run(), name="profile-prefetcher")
        return self._process

    def stop(self) -> None:
        self._stopped = True

    def _consumed(self, chunks: List[int]) -> int:
        """How many of ``chunks`` the foreground boot has explicitly read."""
        return sum(map(self.handle.touched_chunks.__getitem__, chunks))

    def _run(self) -> Generator:
        env = self.handle.vfs.host.env
        order = self.profile.predicted_order()
        # the profile's chunks inside this image: what a look-ahead check counts
        in_image = [idx for idx in order if idx < len(self.handle.touched_chunks)]
        for idx in order:
            if self._stopped or self.handle.closed:
                return self.fetched
            # bounded look-ahead: stay at most `window` chunks ahead
            while self.fetched - self._consumed(in_image) >= self.window:
                yield env.timeout(0.02)
                if self._stopped or self.handle.closed:
                    return self.fetched
            lo, hi = self.handle.modmgr.chunk_bounds(idx)
            if self.handle.modmgr.is_mirrored(lo, hi):
                continue  # the boot got there first
            plan = self.handle.modmgr.plan_read(lo, hi)
            if plan.fetch_chunks:
                chunks = yield from self.handle.translator._fetch_chunk_set(
                    plan.fetch_chunks
                )
                yield from self.handle.translator._apply_gaps(chunks, plan.fill_gaps)
                for fetched_idx in plan.fetch_chunks:
                    self.handle.modmgr.record_fetch(fetched_idx)
                self.fetched += len(plan.fetch_chunks)
                self.handle.vfs.host.fabric.metrics.count("prefetch-chunk", len(plan.fetch_chunks))
        return self.fetched

