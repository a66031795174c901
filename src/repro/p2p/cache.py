"""The per-node peer chunk cache.

Every compute node that participates in cooperative chunk exchange keeps a
bounded, RAM-accounted LRU of image chunks it has already obtained — from
the BlobSeer providers, from a peer, or ahead of time via the
profile-guided prefetcher. The cache is keyed by the chunk's *storage key*
(:attr:`~repro.blobseer.metadata.ChunkRef.key`): keys are globally unique
and stable across snapshots that share content through metadata shadowing,
so a chunk cached while booting version ``v`` also serves peers reading any
later snapshot that still references it.

The cache is pure state: it never touches the simulated clock. Serving and
transfer costs live in :mod:`repro.p2p.exchange`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..common.errors import StorageError
from ..common.payload import Payload


class PeerChunkCache:
    """Bounded LRU of ``chunk key -> payload``, accounted in bytes."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise StorageError(
                f"peer cache capacity must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = int(capacity_bytes)
        self.used_bytes = 0
        #: LRU order: oldest entry first, most recently used last
        self._entries: "OrderedDict[int, Payload]" = OrderedDict()
        # lifetime stats (observers only; never affect the timeline)
        self.insertions = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    def get(self, key: int) -> Optional[Payload]:
        """Return the cached payload (refreshing recency) or ``None``."""
        payload = self._entries.get(key)
        if payload is not None:
            self._entries.move_to_end(key)
        return payload

    def put(self, key: int, payload: Payload) -> bool:
        """Insert a chunk, evicting LRU entries to stay within capacity.

        A chunk bigger than the whole cache is rejected (returns ``False``)
        rather than flushing everything for one uncacheable entry.
        """
        size = payload.size
        if size > self.capacity_bytes:
            return False
        entries = self._entries
        old = entries.get(key)
        if old is not None:
            entries.move_to_end(key)
            return True
        entries[key] = payload
        self.used_bytes += size
        self.insertions += 1
        while self.used_bytes > self.capacity_bytes:
            _evicted_key, evicted = entries.popitem(last=False)
            self.used_bytes -= evicted.size
            self.evictions += 1
        return True

    # ------------------------------------------------------------------ #
    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop everything (volatile state lost on a host crash)."""
        self._entries.clear()
        self.used_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeerChunkCache({len(self)} chunks, "
            f"{self.used_bytes}/{self.capacity_bytes} B)"
        )
