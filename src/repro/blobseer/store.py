"""Provider-side chunk storage (content plane).

A :class:`ChunkStore` holds the actual chunk payloads of one data provider.
It is pure content: all timing (disk queue, write buffer) lives in the
provider *service* wrapping it. Keys are the globally unique chunk keys
minted by clients at write time and recorded in the metadata leaves.
"""

from __future__ import annotations

from typing import Dict, KeysView

from ..common.errors import ChunkNotFoundError
from ..common.payload import Payload


class ChunkStore:
    """Immutable-chunk key-value store of one data provider."""

    def __init__(self):
        self._chunks: Dict[int, Payload] = {}

    def put(self, key: int, payload: Payload) -> None:
        """Store a chunk. Keys are write-once (chunks are immutable)."""
        if key in self._chunks:
            raise ChunkNotFoundError(f"chunk key {key} already stored (immutable)")
        self._chunks[key] = payload

    def get(self, key: int) -> Payload:
        try:
            return self._chunks[key]
        except KeyError:
            raise ChunkNotFoundError(f"no chunk with key {key}") from None

    def has(self, key: int) -> bool:
        return key in self._chunks

    def discard(self, key: int) -> None:
        """Remove a chunk (used only by failure injection)."""
        self._chunks.pop(key, None)

    def keys(self) -> KeysView[int]:
        return self._chunks.keys()

    def total_bytes(self) -> int:
        return sum(p.size for p in self._chunks.values())

    def __len__(self) -> int:
        return len(self._chunks)


class KeyMinter:
    """Process-wide unique chunk-key allocator (one per BlobSeer deployment)."""

    def __init__(self):
        self._next = 1

    def mint_one(self) -> int:
        key = self._next
        self._next += 1
        return key
