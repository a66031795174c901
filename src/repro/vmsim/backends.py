"""Image backends: what the hypervisor's virtual disk sits on.

The three deployment approaches of §5.2 expose the same interface to the VM:

* :class:`LocalRawBackend` — prepropagation: the raw image is fully on the
  local disk (cold on first read, page-cached after), hypervisor default
  write path. Snapshotting would mean copying 2 GB per VM, which the paper
  deems infeasible — ``snapshot`` raises.
* :class:`Qcow2PvfsBackend` — a local qcow2 CoW file whose backing image is
  striped on PVFS. Reads of unallocated clusters go to PVFS *every time*;
  writes CoW-allocate locally. Snapshot = copy the qcow2 file into PVFS.
* :class:`MirrorBackend` — the paper's approach: the mirroring VFS over
  BlobSeer. Snapshot = ``CLONE`` (first time) + ``COMMIT``.

All methods are process-style generators running on the simulated fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..baselines.pvfs import PvfsDeployment
from ..baselines.qcow2 import Qcow2Image
from ..blobseer.service import BlobSeerDeployment
from ..calibration import FuseModel
from ..common.errors import MirrorStateError, StorageError
from ..common.intervals import IntervalSet
from ..common.payload import Payload
from ..core.localmirror import hypervisor_policy
from ..core.vfs import MirrorVFS
from ..simkit.disk import FileDevice
from ..simkit.host import Host


@dataclass
class SnapshotResult:
    """Outcome of snapshotting one VM instance."""

    #: identifier of the persisted snapshot (blob/version or PVFS path)
    ident: str
    #: bytes physically moved to persistent storage
    bytes_moved: int
    #: simulated seconds the snapshot took
    duration: float


class LocalRawBackend:
    """Raw image fully available on the local disk (prepropagation)."""

    def __init__(self, host: Host, path: str, fuse: Optional[FuseModel] = None):
        self.host = host
        self.path = path
        self.fuse = fuse if fuse is not None else FuseModel()
        self.file = host.open_file(path)
        self.size = self.file.size
        self.device = FileDevice(host.env, host.disk, hypervisor_policy(self.fuse), self.size)
        self._cached = IntervalSet()

    def open(self) -> Generator:
        yield self.host.env.timeout(0)
        return self

    def read(self, offset: int, nbytes: int) -> Generator:
        cached = self._cached.contains(offset, offset + nbytes)
        yield from self.device.read(nbytes, cached=cached)
        self._cached.add(offset, offset + nbytes)
        return self.file.read(offset, nbytes)

    def write(self, offset: int, payload: Payload) -> Generator:
        yield from self.device.write(payload.size)
        self._cached.add(offset, offset + payload.size)
        self.file.write(offset, payload)

    def close(self) -> Generator:
        yield from self.device.sync()

    def snapshot(self) -> Generator:
        raise StorageError(
            "prepropagation cannot multisnapshot: copying the full image "
            "back per VM is infeasible (paper §5.3)"
        )
        yield  # pragma: no cover


class Qcow2PvfsBackend:
    """qcow2 CoW file on the local disk, backing image striped on PVFS."""

    def __init__(
        self,
        host: Host,
        pvfs: PvfsDeployment,
        backing_path: str,
        fuse: Optional[FuseModel] = None,
        cluster_size: int = 64 * 1024,
    ):
        self.host = host
        self.pvfs = pvfs
        self.backing_path = backing_path
        self.fuse = fuse if fuse is not None else FuseModel()
        self.client = pvfs.client(host)
        meta = pvfs.meta_servers[pvfs.meta_host_for(backing_path).name].files[backing_path]
        self.size = meta.size
        self.image = Qcow2Image(
            self.size,
            backing_read=lambda off, n: pvfs.peek(backing_path, off, n),
            cluster_size=cluster_size,
        )
        self.device = FileDevice(host.env, host.disk, hypervisor_policy(self.fuse), self.size)

    def open(self) -> Generator:
        """Create the local qcow2 file pointing at the PVFS backing image."""
        yield self.host.env.timeout(self.host.fabric.network.per_message_overhead)
        return self

    def _charge(self, report) -> Generator:
        """Turn a pure-format IoReport into simulated time.

        Backing fetches are issued cluster by cluster (QEMU's qcow2 driver
        performs backing I/O at cluster granularity), serially within one
        guest request — the per-request overhead the mirror's full-chunk
        prefetch avoids (§3.3, and the paper's explanation of Fig. 4(a)).
        """
        cs = self.image.cluster_size
        for off, nbytes in report.backing_reads:
            cursor = off
            end = off + nbytes
            while cursor < end:
                c_hi = min((cursor // cs + 1) * cs, end)
                # Remote read of the backing extent from PVFS (timed; content
                # was already supplied synchronously by the peek callback).
                yield from self.client.read(self.backing_path, cursor, c_hi - cursor)
                cursor = c_hi
        if report.local_read_bytes:
            yield from self.device.read(report.local_read_bytes, cached=True)
        if report.local_write_bytes:
            yield from self.device.write(report.local_write_bytes)

    def read(self, offset: int, nbytes: int) -> Generator:
        payload, report = self.image.read(offset, nbytes)
        yield from self._charge(report)
        return payload

    def write(self, offset: int, payload: Payload) -> Generator:
        report = self.image.write(offset, payload)
        yield from self._charge(report)

    def close(self) -> Generator:
        yield from self.device.sync()

    def snapshot(self) -> Generator:
        """Copy the local qcow2 file back into PVFS (a new file each time)."""
        t0 = self.host.env.now
        file_payload, index = self.image.serialize()
        self.pvfs.snapshots_taken += 1
        path = f"/snapshots/{self.host.name}-{self.pvfs.snapshots_taken}.qcow2"
        # read the qcow2 file from the local disk, then stream it into PVFS
        yield from self.device.read(file_payload.size, cached=True)
        yield from self.client.create(path, file_payload.size)
        yield from self.client.write(path, 0, file_payload)
        self.host.fabric.metrics.count("qcow2-snapshot")
        return SnapshotResult(path, file_payload.size, self.host.env.now - t0)


class MirrorBackend:
    """The paper's approach: mirroring VFS over BlobSeer."""

    def __init__(
        self,
        host: Host,
        deployment: BlobSeerDeployment,
        blob_id: int,
        version: Optional[int] = None,
        fuse: Optional[FuseModel] = None,
        path: Optional[str] = None,
        full_chunk_prefetch: bool = True,
    ):
        self.host = host
        self.deployment = deployment
        self.blob_id = blob_id
        self.version = version
        self.fuse = fuse if fuse is not None else FuseModel()
        self.path = path
        self.vfs = MirrorVFS(
            host, deployment.client(host), self.fuse,
            full_chunk_prefetch=full_chunk_prefetch,
        )
        self.handle = None
        self.size = None

    def open(self) -> Generator:
        self.handle = yield from self.vfs.open(self.blob_id, self.version, self.path)
        self.size = self.handle.size
        return self

    def _h(self):
        if self.handle is None:
            raise MirrorStateError("backend not opened")
        return self.handle

    def read(self, offset: int, nbytes: int) -> Generator:
        return self._h().read(offset, nbytes)

    def write(self, offset: int, payload: Payload) -> Generator:
        return self._h().write(offset, payload)

    def close(self) -> Generator:
        return self._h().close()

    def snapshot(self) -> Generator:
        """CLONE (first time) + COMMIT: publish local diffs as a snapshot."""
        t0 = self.host.env.now
        handle = self._h()
        moved = handle.modmgr.dirty_bytes()
        if handle.target_blob == handle.source_blob:
            yield from handle.ioctl_clone()
        rec = yield from handle.ioctl_commit()
        return SnapshotResult(
            f"blob{rec.blob_id}@v{rec.version}", moved, self.host.env.now - t0
        )
