"""The local mirror file: mmap-backed sparse file on the compute node.

The paper's FUSE module creates, on first open of a VM image, an initially
empty local file of the image's size, ``mmap``s it for the lifetime of the
handle (local reads/writes become memory operations with the kernel's
asynchronous write-back), and on close persists extra metadata describing
the local modification state so a later re-open can restore it (§4.2).

Content lives in the host's :class:`~repro.common.payload.SparseFile`
namespace; timing goes through a :class:`~repro.simkit.disk.FileDevice`
configured with the mmap write policy.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..calibration import FuseModel
from ..common.errors import MirrorStateError
from ..common.payload import Payload, SparseFile
from ..simkit.disk import FileDevice, WritePolicy
from ..simkit.host import Host


def mmap_policy(fuse: FuseModel) -> WritePolicy:
    """The mirror's local-access path: mmap write-back + FUSE per-op cost."""
    return WritePolicy(
        name="mirror-mmap",
        write_absorb_bandwidth=fuse.mmap_write_bandwidth,
        cached_read_bandwidth=fuse.cached_read_bandwidth,
        per_op_overhead=fuse.per_op_overhead,
        dirty_budget=fuse.dirty_budget,
        data_op_overhead=fuse.data_op_overhead,
    )


def hypervisor_policy(fuse: FuseModel) -> WritePolicy:
    """The baseline path: hypervisor writing a plain local file, no FUSE."""
    return WritePolicy(
        name="hypervisor-default",
        write_absorb_bandwidth=fuse.hypervisor_write_bandwidth,
        cached_read_bandwidth=fuse.cached_read_bandwidth,
        per_op_overhead=fuse.local_per_op_overhead,
        dirty_budget=fuse.dirty_budget,
        data_op_overhead=fuse.local_data_op_overhead,
    )


def host_registry(host: Host, name: str) -> Dict[str, object]:
    """A per-host table by mirror path (persisted states, open handles)."""
    reg = getattr(host, name, None)
    if reg is None:
        reg = {}
        setattr(host, name, reg)
    return reg


class LocalMirrorFile:
    """Sparse local file + timing device + persisted modification state."""

    def __init__(self, host: Host, path: str, size: int, fuse: FuseModel):
        self.host = host
        self.path = path
        self.size = size
        self.fuse = fuse
        if host.exists(path):
            self.file: SparseFile = host.open_file(path)
            if self.file.size != size:
                raise MirrorStateError(
                    f"{path}: existing mirror size {self.file.size} != {size}"
                )
        else:
            self.file = host.create_file(path, size)
        self.device = FileDevice(host.env, host.disk, mmap_policy(fuse), size)
        self._open = True

    # ------------------------------------------------------------------ #
    def pread(self, lo: int, hi: int) -> Generator:
        """Read mirrored bytes (memory-mapped: served from the page cache)."""
        self._check_open()
        yield from self.device.read(hi - lo, cached=True)
        return self.file.read(lo, hi - lo)

    def pwrite(self, lo: int, payload: Payload) -> Generator:
        """Write bytes through the mmap (absorbed by async write-back)."""
        self._check_open()
        yield from self.device.write(payload.size)
        self.file.write(lo, payload)

    def apply_remote(self, lo: int, payload: Payload, missing) -> Generator:
        """Mirror content fetched for ``[lo, lo + size)`` (same timed write path).

        Only the ``missing`` sub-ranges are stored — the caller found them
        unmirrored at this instant — and, unlike a guest write, they land
        *before* the write's time passes, so a guest write that lands
        meanwhile ends up on top. Nobody reads them early: a range counts as
        mirrored once the caller records the fill. The time is that of the
        whole payload: every fetched byte crosses the mmap window.
        """
        self._check_open()
        for g_lo, g_hi in missing:
            self.file.write(g_lo, payload.slice(g_lo - lo, g_hi - lo))
        yield from self.device.write(payload.size)

    # ------------------------------------------------------------------ #
    # persistence of the modification-manager state across close/open
    # ------------------------------------------------------------------ #
    def persist_state(self, state: dict) -> Generator:
        """Close-time: munmap + write the extra metadata next to the file."""
        self._check_open()
        yield from self.device.sync()
        yield from self.host.disk.write(4096, sequential=False)  # metadata blob
        host_registry(self.host, "_mirror_states")[self.path] = state
        self._release()

    def load_state(self) -> Optional[dict]:
        """Open-time: restore persisted modification state, if any."""
        return host_registry(self.host, "_mirror_states").get(self.path)

    def unlink(self) -> None:
        """Discard the mirror and its persisted state (VM destroyed)."""
        self.host.unlink(self.path)
        host_registry(self.host, "_mirror_states").pop(self.path, None)
        self._release()

    def _release(self) -> None:
        """No handle holds the file any more: it may be opened again."""
        host_registry(self.host, "_mirror_handles").pop(self.path, None)
        self._open = False

    def _check_open(self) -> None:
        if not self._open:
            raise MirrorStateError(f"{self.path}: I/O on closed mirror")
