"""Reconstructing the snapshot forest from the version manager's lineage log.

A :class:`LineageForest` is a pure, immutable view over the
:class:`~repro.blobseer.vmanager.BlobRegistry`'s append-only lineage log:
every snapshot ever published is a node; parent edges follow the previous
snapshot of the same blob (ordinary COMMITs), jump across blobs at CLONE
points, and survive churn retirements (a retired snapshot stays in the
forest, flagged). On top of that graph the forest answers the queries the
rest of the subsystem needs: ancestry chains, depths, branch points, heads
and per-blob chains.

Building the forest reads registry state directly — it is an analysis
structure with no simulated cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..blobseer.vmanager import BlobRegistry, LineageEntry, VersionKey
from ..common.errors import LineageError


class LineageForest:
    """An immutable snapshot-ancestry view built from the lineage log."""

    def __init__(self, entries: List[LineageEntry]):
        self._entries: Dict[VersionKey, LineageEntry] = {
            e.key: e for e in entries
        }
        self._children: Dict[VersionKey, List[VersionKey]] = {}
        for e in entries:
            if e.parent is not None:
                self._children.setdefault(e.parent, []).append(e.key)
        for kids in self._children.values():
            kids.sort()

    @classmethod
    def from_registry(cls, registry: BlobRegistry) -> "LineageForest":
        return cls(registry.lineage_entries())

    # ------------------------------------------------------------------ #
    def entry(self, blob_id: int, version: int) -> LineageEntry:
        entry = self._entries.get((blob_id, version))
        if entry is None:
            raise LineageError(
                f"no lineage record for blob {blob_id} v{version}"
            )
        return entry

    # ------------------------------------------------------------------ #
    def ancestry(self, blob_id: int, version: int) -> List[VersionKey]:
        """The chain from ``(blob, version)`` back to its genesis, inclusive."""
        chain: List[VersionKey] = []
        seen = set()
        key: Optional[VersionKey] = (blob_id, version)
        while key is not None:
            if key in seen:
                raise LineageError(
                    f"lineage cycle through blob {key[0]} v{key[1]}"
                )
            seen.add(key)
            chain.append(key)
            key = self.entry(*key).parent
        return chain

    def depth(self, blob_id: int, version: int) -> int:
        """Edges between a snapshot and its genesis (0 for a genesis)."""
        return len(self.ancestry(blob_id, version)) - 1

    # ------------------------------------------------------------------ #
    def roots(self) -> Tuple[VersionKey, ...]:
        """Genesis snapshots (no parent edge), sorted."""
        return tuple(sorted(k for k, e in self._entries.items() if e.parent is None))

    def heads(self) -> Tuple[VersionKey, ...]:
        """Snapshots with no descendants (live or retired), sorted."""
        return tuple(sorted(k for k in self._entries if not self._children.get(k)))

    def branch_points(self) -> Tuple[VersionKey, ...]:
        """Snapshots with more than one child (CLONE fan-out), sorted."""
        return tuple(sorted(
            k for k, kids in self._children.items() if len(kids) > 1
        ))

    def clone_edges(self) -> Tuple[Tuple[VersionKey, VersionKey], ...]:
        """(source, clone-head) pairs for every CLONE in the forest."""
        return tuple(sorted(
            (e.parent, e.key)
            for e in self._entries.values()
            if e.kind == "clone" and e.parent is not None
        ))

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Whole-forest shape summary (benchmark artifacts, CLI output)."""
        retired = sum(1 for e in self._entries.values() if e.retired)
        max_depth = 0
        for key in self.heads():
            max_depth = max(max_depth, self.depth(*key))
        return {
            "snapshots": len(self._entries),
            "retired": retired,
            "roots": len(self.roots()),
            "heads": len(self.heads()),
            "branch_points": len(self.branch_points()),
            "clones": len(self.clone_edges()),
            "max_depth": max_depth,
        }
