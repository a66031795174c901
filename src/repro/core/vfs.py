"""The mirroring virtual file system: the paper's contribution (§3, §4).

:class:`MirrorVFS` plays the role of the FUSE module running on every
compute node: it exposes repository snapshots as plain local files the
hypervisor can open, read and write through a POSIX-like interface, while

* lazily mirroring content on demand from the striped repository,
* keeping all writes local,
* exposing the ``CLONE`` and ``COMMIT`` control primitives (the paper
  implements them as ``ioctl``\\ s trapped by the FUSE module).

An open image is a :class:`MirrorHandle`. Closing a handle persists the
modification state next to the local file; re-opening the same image on the
same node restores it (§4.2). The handle tracks its *commit target*:
initially the source blob itself; after ``ioctl_clone`` the private clone,
so consecutive ``COMMIT``\\ s build the clone's totally ordered snapshot
history (Fig. 3(c)).
"""

from __future__ import annotations

from typing import Generator, Optional

from ..blobseer.client import BlobClient
from ..blobseer.vmanager import SnapshotRecord
from ..calibration import FuseModel
from ..common.errors import MirrorStateError
from ..common.payload import Payload
from ..simkit.host import Host
from .localmirror import LocalMirrorFile
from .modmanager import ModificationManager
from .translator import RWTranslator


class MirrorHandle:
    """An open mirrored image: the 'raw file' the hypervisor sees."""

    def __init__(
        self,
        vfs: "MirrorVFS",
        path: str,
        source_blob: int,
        source_version: int,
        size: int,
        chunk_size: int,
        modmgr: ModificationManager,
        local: LocalMirrorFile,
    ):
        self.vfs = vfs
        self.path = path
        self.source_blob = source_blob
        self.source_version = source_version
        self.size = size
        self.chunk_size = chunk_size
        self.modmgr = modmgr
        self.local = local
        self.translator = RWTranslator(
            modmgr, local, vfs.client, source_blob, source_version,
            full_chunk_prefetch=vfs.full_chunk_prefetch,
        )
        #: blob receiving COMMITs (the clone once ioctl_clone ran)
        self.target_blob: int = source_blob
        self.target_version: int = source_version
        #: per chunk index: 1 once an explicit read touched it (the
        #: consumption signal of the profile-guided prefetcher)
        self.touched_chunks = bytearray(modmgr.n_chunks)
        self._closed = False

    # ------------------------------------------------------------------ #
    # POSIX-ish data plane
    # ------------------------------------------------------------------ #
    def read(self, offset: int, nbytes: int) -> Generator:
        """``pread``: returns a Payload of exactly ``nbytes``."""
        self._check()
        if offset < 0 or offset + nbytes > self.size:
            raise MirrorStateError(f"read [{offset},{offset + nbytes}) beyond image")
        touched = self.touched_chunks
        for idx in self.modmgr.chunks_overlapping(offset, offset + nbytes):
            touched[idx] = 1
        tracer = self.vfs.host.fabric.tracer
        if not tracer.enabled:  # once per guest op: no null span either (DESIGN.md §9)
            return (yield from self.translator.read(offset, nbytes))
        with tracer.start("vfs:read", "vfs", offset=offset, nbytes=nbytes):
            return (yield from self.translator.read(offset, nbytes))

    def write(self, offset: int, payload: Payload) -> Generator:
        """``pwrite``: always local (plus strategy-2 gap fills)."""
        self._check()
        if offset < 0 or offset + payload.size > self.size:
            raise MirrorStateError(f"write [{offset},{offset + payload.size}) beyond image")
        tracer = self.vfs.host.fabric.tracer
        if not tracer.enabled:  # once per guest op, as in read()
            return (yield from self.translator.write(offset, payload))
        with tracer.start("vfs:write", "vfs", offset=offset, nbytes=payload.size):
            return (yield from self.translator.write(offset, payload))

    def close(self) -> Generator:
        """munmap + persist modification state for a later re-open."""
        self._check()
        state = {
            "modmgr": self.modmgr.to_state(),
            "source": (self.source_blob, self.source_version),
            "target": (self.target_blob, self.target_version),
        }
        yield from self.local.persist_state(state)
        self._closed = True

    # ------------------------------------------------------------------ #
    # control plane (the two ioctls)
    # ------------------------------------------------------------------ #
    def ioctl_clone(self) -> Generator:
        """CLONE: create a private writable lineage for this instance.

        Returns the clone's first :class:`SnapshotRecord`. Subsequent
        COMMITs publish into the clone.
        """
        self._check()
        with self.vfs.host.fabric.tracer.start(
            "ioctl:CLONE", "snapshot", blob=self.source_blob, version=self.source_version,
        ):
            rec: SnapshotRecord = yield from self.vfs.client.clone(
                self.source_blob, self.source_version
            )
        self.target_blob = rec.blob_id
        self.target_version = rec.version
        self.vfs.host.fabric.metrics.count("ioctl-clone")
        return rec

    def ioctl_commit(self) -> Generator:
        """COMMIT: publish all local modifications as a new snapshot.

        The new snapshot is standalone (readable as a full raw image) yet
        physically stores only the dirty chunks; everything else is shared
        through the segment trees. Returns the new record; a COMMIT with no
        local modifications returns the current target snapshot unchanged.
        """
        self._check()
        metrics = self.vfs.host.fabric.metrics
        tracer = self.vfs.host.fabric.tracer
        with tracer.start("ioctl:COMMIT", "snapshot", blob=self.target_blob) as span:
            # Taken now, before any simulated time passes: a write that lands
            # while the COMMIT is in flight stays dirty for the next one.
            collected = self.modmgr.clear_dirty()
            try:
                updates = yield from self.translator.collect_dirty_chunks(sorted(collected))
                span.set(dirty_chunks=len(updates))
                if not updates:
                    rec = yield from self.vfs.client._lookup_snapshot(
                        self.target_blob, self.target_version
                    )
                    return rec
                rec: SnapshotRecord = yield from self.vfs.client.write_chunks(
                    self.target_blob, updates, base_version=self.target_version
                )
            except BaseException:
                self.modmgr.restore_dirty(collected)  # nothing was published
                raise
        self.target_version = rec.version
        metrics.count("ioctl-commit")
        metrics.count("commit-chunks", len(updates))
        return rec

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def _check(self) -> None:
        if self._closed:
            raise MirrorStateError(f"{self.path}: handle is closed")


class MirrorVFS:
    """Per-compute-node mirroring module (the FUSE process)."""

    def __init__(
        self,
        host: Host,
        client: BlobClient,
        fuse: Optional[FuseModel] = None,
        full_chunk_prefetch: bool = True,
    ):
        if client.host is not host:
            raise MirrorStateError("client must be bound to the VFS host")
        self.host = host
        self.client = client
        self.fuse = fuse if fuse is not None else FuseModel()
        #: strategy-1 switch (False only for the no-prefetch ablation)
        self.full_chunk_prefetch = full_chunk_prefetch

    def open(self, blob_id: int, version: Optional[int] = None, path: Optional[str] = None) -> Generator:
        """Open a repository snapshot as a local raw image file.

        First open creates an empty sparse local file of the snapshot's
        size; a re-open of the same ``path`` restores the persisted
        modification state (locally mirrored content survives).
        """
        snap = yield from self.client._lookup_snapshot(blob_id, version)
        if path is None:
            path = f"/mirror/blob{snap.blob_id}@{snap.version}"
        local = LocalMirrorFile(self.host, path, snap.size, self.fuse)
        state = local.load_state()
        if state is not None:
            if tuple(state["source"]) != (snap.blob_id, snap.version):
                raise MirrorStateError(
                    f"{path}: persisted state belongs to blob "
                    f"{state['source']}, not ({snap.blob_id}, {snap.version})"
                )
            modmgr = ModificationManager.from_state(
                state["modmgr"], enforce_contiguity=self.full_chunk_prefetch
            )
            handle = MirrorHandle(
                self, path, snap.blob_id, snap.version, snap.size, snap.chunk_size,
                modmgr, local,
            )
            handle.target_blob, handle.target_version = state["target"]
        else:
            modmgr = ModificationManager(
                snap.size, snap.chunk_size, enforce_contiguity=self.full_chunk_prefetch
            )
            handle = MirrorHandle(
                self, path, snap.blob_id, snap.version, snap.size, snap.chunk_size,
                modmgr, local,
            )
        self.host.fabric.metrics.count("mirror-open")
        return handle
