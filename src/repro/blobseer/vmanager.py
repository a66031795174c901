"""The version manager: blob registry, snapshot ordering, publish protocol.

BlobSeer's version manager is the serialization point of the system: it
assigns monotonically increasing version numbers to published snapshots of
each blob and guarantees that a version becomes visible only once its data
and metadata are durable ("publish" is the linearization event).

:class:`BlobRegistry` is the pure state; :class:`VersionManagerService` (in
:mod:`repro.blobseer.provider`) wraps it for the simulated fabric.

The registry also implements CLONE at the registry level: a clone is a new
blob whose first snapshot shares the source snapshot's metadata root
(Fig. 3(b)); subsequent COMMITs to the clone are ordered within the clone
only, so clones evolve independently.

Beyond the published snapshot set, the registry keeps an append-only
**lineage log**: one :class:`LineageEntry` per snapshot ever published,
recording its parent edge (the previous snapshot of the same blob, or the
CLONE source for a clone's first snapshot), the metadata root and, once the
snapshot is unpublished, a ``retired`` marker. The log is what lets the
:mod:`repro.lineage` subsystem reconstruct the full snapshot forest —
including branches that churn has already torn down — and what
restore-to-version reads to reopen a historical snapshot: the target's own
entry, since its metadata root reaches every chunk it needs. Entries are tiny
(a few ints) and never deleted, mirroring how the central
:class:`~repro.blobseer.metadata.MetadataStore` retains tree nodes.

The registry also supports refcounted **version pins** with deferred
deletes: while a restore (or a merge) holds a pin on ``(blob, version)``,
``delete_version`` / ``delete_blob`` targeting it do not unpublish — the
delete is recorded and replayed when the last pin drops. Since a deferred
version stays published, it remains a GC root, so a pinned snapshot can
never lose chunks to a concurrent sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..common.errors import LineageError, UnknownBlobError, UnknownVersionError
from .metadata import MetadataStore, NodeId, clone_root

#: a snapshot identity in the lineage log
VersionKey = Tuple[int, int]


@dataclass(frozen=True)
class SnapshotRecord:
    """One published snapshot of a blob."""

    blob_id: int
    version: int
    root: Optional[NodeId]
    size: int
    chunk_size: int


@dataclass
class LineageEntry:
    """One snapshot's permanent lineage record (survives unpublish).

    ``parent`` is the previous snapshot of the same blob for ordinary
    publishes, the CLONE source for a clone's first snapshot, and ``None``
    for a genesis snapshot (version 0, or a seeded blob's first publish).
    """

    blob_id: int
    version: int
    parent: Optional[VersionKey]
    kind: str  # "create" | "publish" | "clone"
    root: Optional[NodeId]
    size: int
    chunk_size: int
    retired: bool = False

    @property
    def key(self) -> VersionKey:
        return (self.blob_id, self.version)


class BlobRegistry:
    """Pure version-manager state: blobs and their totally ordered snapshots.

    Snapshot numbers are monotonically increasing per blob and never reused;
    individual versions (or whole blobs) can be *deleted*, which unpublishes
    them — the garbage collector (:mod:`repro.blobseer.gc`) then reclaims
    whatever chunks and metadata nodes no remaining snapshot references.
    """

    def __init__(self, metadata: MetadataStore):
        self.metadata = metadata
        self._blobs: Dict[int, Dict[int, SnapshotRecord]] = {}
        self._latest: Dict[int, int] = {}
        #: next version number per blob — deleted numbers are never reused
        self._next_version: Dict[int, int] = {}
        self._next_blob = 1
        #: append-only lineage log: every snapshot ever published
        self._lineage: Dict[VersionKey, LineageEntry] = {}
        #: refcounted version pins (restore / merge leases)
        self._pins: Dict[VersionKey, int] = {}
        #: deletes deferred because their target was pinned
        self._deferred_versions: Set[VersionKey] = set()
        self._deferred_blobs: Set[int] = set()

    # ------------------------------------------------------------------ #
    def _log(
        self,
        rec: SnapshotRecord,
        parent: Optional[VersionKey],
        kind: str,
    ) -> None:
        self._lineage[(rec.blob_id, rec.version)] = LineageEntry(
            blob_id=rec.blob_id,
            version=rec.version,
            parent=parent,
            kind=kind,
            root=rec.root,
            size=rec.size,
            chunk_size=rec.chunk_size,
        )

    def create_blob(self, size: int, chunk_size: int) -> int:
        """Register a new empty blob; snapshot 0 is the all-holes version."""
        blob_id = self._next_blob
        self._next_blob += 1
        rec = SnapshotRecord(blob_id, 0, None, size, chunk_size)
        self._blobs[blob_id] = {0: rec}
        self._latest[blob_id] = 0
        self._next_version[blob_id] = 1
        self._log(rec, None, "create")
        return blob_id

    def publish(self, blob_id: int, root: Optional[NodeId]) -> SnapshotRecord:
        """Publish a new snapshot of ``blob_id``; returns the ordered record."""
        history = self._history(blob_id)
        last = history[self._latest[blob_id]]
        version = self._next_version[blob_id]
        rec = SnapshotRecord(blob_id, version, root, last.size, last.chunk_size)
        history[version] = rec
        self._latest[blob_id] = version
        self._next_version[blob_id] = version + 1
        self._log(rec, (blob_id, last.version), "publish")
        return rec

    def clone(self, blob_id: int, version: Optional[int] = None) -> SnapshotRecord:
        """CLONE: new blob whose snapshot 1 shares the source snapshot's tree."""
        src = self.lookup(blob_id, version)
        return self._clone_from(src)

    def clone_from_lineage(self, blob_id: int, version: int) -> SnapshotRecord:
        """CLONE from the lineage log: the source may already be retired.

        This is what restore-to-version uses — the lineage record retains
        the snapshot's metadata root after an unpublish, so a retired
        version whose chunks have not yet been garbage-collected can still
        be reopened as a new branch. Whether the chunks survive is the
        caller's problem (:func:`repro.lineage.restore.restore_to_version`
        verifies against the providers and pins in-flight state).
        """
        entry = self.lineage_entry(blob_id, version)
        src = SnapshotRecord(
            entry.blob_id, entry.version, entry.root, entry.size, entry.chunk_size
        )
        return self._clone_from(src)

    def _clone_from(self, src: SnapshotRecord) -> SnapshotRecord:
        new_root = clone_root(self.metadata, src.root)
        new_id = self._next_blob
        self._next_blob += 1
        zero = SnapshotRecord(new_id, 0, None, src.size, src.chunk_size)
        first = SnapshotRecord(new_id, 1, new_root, src.size, src.chunk_size)
        # version 0 of the clone is, as for any blob, the empty snapshot
        self._blobs[new_id] = {0: zero, 1: first}
        self._latest[new_id] = 1
        self._next_version[new_id] = 2
        self._log(zero, None, "create")
        self._log(first, (src.blob_id, src.version), "clone")
        return first

    def delete_version(self, blob_id: int, version: int) -> None:
        """Unpublish one snapshot (it must not be the blob's only one).

        If the version is pinned, the delete is *deferred*: it completes
        when the last pin drops, and until then the snapshot stays
        published (and therefore GC-rooted).
        """
        history = self._history(blob_id)
        if version not in history:
            raise UnknownVersionError(f"blob {blob_id} has no version {version}")
        if len(history) == 1:
            raise UnknownVersionError(
                f"blob {blob_id}: cannot delete its only snapshot; delete the blob"
            )
        if self.pin_count(blob_id, version) > 0:
            self._deferred_versions.add((blob_id, version))
            return
        self._delete_version_now(blob_id, version)

    def _delete_version_now(self, blob_id: int, version: int) -> None:
        history = self._history(blob_id)
        del history[version]
        if self._latest[blob_id] == version:
            self._latest[blob_id] = max(history)
        self._retire(blob_id, version)

    def delete_blob(self, blob_id: int) -> None:
        """Unregister a blob and all its snapshots.

        If any of its versions is pinned, the whole delete is deferred
        until the last pin on the blob drops.
        """
        history = self._history(blob_id)  # existence check
        if any(self.pin_count(blob_id, v) > 0 for v in history):
            self._deferred_blobs.add(blob_id)
            return
        self._delete_blob_now(blob_id)

    def _delete_blob_now(self, blob_id: int) -> None:
        for version in self._blobs[blob_id]:
            self._retire(blob_id, version)
        del self._blobs[blob_id]
        del self._latest[blob_id]
        del self._next_version[blob_id]
        self._deferred_blobs.discard(blob_id)
        self._deferred_versions = {
            key for key in self._deferred_versions if key[0] != blob_id
        }

    def _retire(self, blob_id: int, version: int) -> None:
        entry = self._lineage.get((blob_id, version))
        if entry is not None:
            entry.retired = True
        self._deferred_versions.discard((blob_id, version))

    # ------------------------------------------------------------------ #
    # version pins (restore / merge leases)
    # ------------------------------------------------------------------ #
    def pin_version(self, blob_id: int, version: int) -> None:
        """Take a refcounted lease on a snapshot's lineage record.

        The version may already be retired (a restore from a retired
        snapshot pins it like a live one); pinning a never-published
        version raises.
        """
        key = (blob_id, version)
        if key not in self._lineage:
            raise UnknownVersionError(
                f"blob {blob_id} never published a version {version}"
            )
        self._pins[key] = self._pins.get(key, 0) + 1

    def unpin_version(self, blob_id: int, version: int) -> None:
        """Drop one pin; replays any delete deferred while the pin was held."""
        key = (blob_id, version)
        left = self._pins.get(key, 0) - 1
        if left < 0:
            raise LineageError(f"unpin without pin on blob {blob_id} v{version}")
        if left > 0:
            self._pins[key] = left
            return
        self._pins.pop(key, None)
        if blob_id in self._deferred_blobs:
            history = self._blobs.get(blob_id)
            if history is not None and not any(
                self.pin_count(blob_id, v) > 0 for v in history
            ):
                self._delete_blob_now(blob_id)
            return
        if key in self._deferred_versions:
            self._delete_version_now(blob_id, version)

    def pin_count(self, blob_id: int, version: int) -> int:
        return self._pins.get((blob_id, version), 0)

    # ------------------------------------------------------------------ #
    # lineage log queries
    # ------------------------------------------------------------------ #
    def lineage_entry(self, blob_id: int, version: int) -> LineageEntry:
        """The permanent lineage record of a snapshot (live or retired)."""
        entry = self._lineage.get((blob_id, version))
        if entry is None:
            raise UnknownVersionError(
                f"blob {blob_id} never published a version {version}"
            )
        return entry

    def lineage_entries(self) -> List[LineageEntry]:
        """Every lineage record ever logged, in publish order."""
        return list(self._lineage.values())

    def is_published(self, blob_id: int, version: int) -> bool:
        """Whether the snapshot is still in the published (GC-rooted) set."""
        history = self._blobs.get(blob_id)
        return history is not None and version in history

    # ------------------------------------------------------------------ #
    def lookup(self, blob_id: int, version: Optional[int] = None) -> SnapshotRecord:
        """Fetch a snapshot record; ``version=None`` means the latest."""
        history = self._history(blob_id)
        if version is None:
            version = self._latest[blob_id]
        rec = history.get(version)
        if rec is None:
            raise UnknownVersionError(f"blob {blob_id} has no version {version}")
        return rec

    def live_records(self) -> List[SnapshotRecord]:
        """Every published snapshot across all blobs (the GC root set)."""
        return [rec for history in self._blobs.values() for rec in history.values()]

    def _history(self, blob_id: int) -> Dict[int, SnapshotRecord]:
        try:
            return self._blobs[blob_id]
        except KeyError:
            raise UnknownBlobError(f"no blob {blob_id}") from None
