"""Unit tests for the bounded per-node peer chunk cache."""

import pytest

from repro.common.errors import StorageError
from repro.common.payload import Payload
from repro.p2p import PeerChunkCache

CHUNK = 1024


def payload(size=CHUNK, fill=0):
    return Payload.from_bytes(bytes([fill % 256]) * size)


class TestBasics:
    def test_roundtrip(self):
        cache = PeerChunkCache(4 * CHUNK)
        p = payload(fill=7)
        assert cache.put(1, p)
        assert cache.get(1) is p
        assert 1 in cache
        assert cache.used_bytes == CHUNK

    def test_miss_returns_none(self):
        cache = PeerChunkCache(CHUNK)
        assert cache.get(99) is None
        assert 99 not in cache

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(StorageError):
            PeerChunkCache(0)
        with pytest.raises(StorageError):
            PeerChunkCache(-1)

    def test_reinsert_does_not_double_count(self):
        cache = PeerChunkCache(4 * CHUNK)
        cache.put(1, payload())
        cache.put(1, payload())
        assert cache.used_bytes == CHUNK
        assert cache.insertions == 1

    def test_put_past_capacity_evicts_to_fit(self):
        cache = PeerChunkCache(2 * CHUNK)
        assert all(cache.put(i, payload(fill=i)) for i in range(3))
        assert cache.used_bytes == 2 * CHUNK and 0 not in cache


class TestEviction:
    def test_lru_order(self):
        cache = PeerChunkCache(3 * CHUNK)
        for key in (1, 2, 3):
            cache.put(key, payload(fill=key))
        cache.get(1)  # refresh: 2 is now the oldest
        cache.put(4, payload(fill=4))
        assert 2 not in cache
        assert all(k in cache for k in (1, 3, 4))
        assert cache.evictions == 1

    def test_eviction_keeps_accounting_exact(self):
        cache = PeerChunkCache(2 * CHUNK)
        for key in range(5):
            cache.put(key, payload(fill=key))
        assert cache.used_bytes == 2 * CHUNK
        assert [k in cache for k in range(5)] == [False, False, False, True, True]
        assert cache.evictions == 3

    def test_oversize_chunk_rejected_not_thrashing(self):
        cache = PeerChunkCache(2 * CHUNK)
        cache.put(1, payload())
        assert not cache.put(2, payload(size=3 * CHUNK))
        # the uncacheable chunk did not flush the existing entry
        assert 1 in cache
        assert cache.used_bytes == CHUNK

    def test_clear_drops_entries_keeps_lifetime_stats(self):
        cache = PeerChunkCache(2 * CHUNK)
        for key in range(4):
            cache.put(key, payload(fill=key))
        cache.clear()
        assert not any(key in cache for key in range(4))
        assert cache.used_bytes == 0
        assert cache.insertions == 4
        assert cache.evictions == 2
