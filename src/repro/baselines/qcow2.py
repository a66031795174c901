"""A functional qcow2-like copy-on-write image format (baseline, §3.1.4).

Implements the properties of QCOW2 that the paper's comparison exercises:

* a **cluster-addressed** mapping (default 64 KiB clusters, QEMU's default)
  from guest offsets to allocated clusters in the image file, equivalent to
  the L1/L2 two-level table scheme (a flat dict here — the two-level split
  only matters for on-disk layout, which we do not reproduce);
* a **backing file**: reads of unallocated clusters fall through to the
  backing image; the qcow2 file itself starts (nearly) empty;
* **copy-on-write**: the first write into an unallocated cluster first
  copies the cluster's backing content, then applies the write;
* **no read caching**: a read of an unallocated cluster goes to the backing
  file *every time* — unlike the paper's mirror, qcow2 only localizes
  clusters on write. This asymmetry is one driver of Fig. 4's gap.

The class is pure content + accounting. Every operation returns an
:class:`IoReport` describing the physical I/O it implies (backing reads,
local reads/writes, cluster allocations); the simulated backend in
:mod:`repro.vmsim.backends` turns reports into simulated time, and the
snapshot path copies the file :meth:`~Qcow2Image.serialize` produces back
to the distributed file system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..common.errors import ImageFormatError, OutOfRangeError
from ..common.payload import Payload, SparseFile
from ..common.units import KiB

#: QEMU's default cluster size.
DEFAULT_CLUSTER = 64 * KiB

#: Fixed-size structures of the format (header + table overhead), charged to
#: the image file's physical footprint.
HEADER_BYTES = 64 * KiB


@dataclass
class IoReport:
    """Physical I/O implied by one logical operation."""

    #: (offset, nbytes) ranges read from the backing image
    backing_reads: List[Tuple[int, int]] = field(default_factory=list)
    #: bytes read from the qcow2 file itself
    local_read_bytes: int = 0
    #: bytes written to the qcow2 file
    local_write_bytes: int = 0
    #: clusters newly allocated (metadata updates)
    clusters_allocated: int = 0


class Qcow2Image:
    """An open qcow2-like image with an optional backing read callback.

    ``backing_read(offset, nbytes) -> Payload`` supplies backing content
    (pure; the simulated backend layers timing on the reported ranges).
    Without a backing file, unallocated clusters read as zeros.
    """

    def __init__(
        self,
        size: int,
        backing_read: Callable[[int, int], Payload] | None = None,
        cluster_size: int = DEFAULT_CLUSTER,
    ):
        if size <= 0 or cluster_size <= 0:
            raise ImageFormatError("size and cluster_size must be positive")
        self.size = size
        self.cluster_size = cluster_size
        self.backing_read = backing_read
        self.n_clusters = -(-size // cluster_size)
        #: guest cluster index -> cluster content (the allocated clusters)
        self._clusters: Dict[int, SparseFile] = {}

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    def _cluster_bounds(self, idx: int) -> Tuple[int, int]:
        lo = idx * self.cluster_size
        return lo, min(lo + self.cluster_size, self.size)

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise OutOfRangeError(
                f"[{offset},{offset + nbytes}) outside image of size {self.size}"
            )

    # ------------------------------------------------------------------ #
    # data plane
    # ------------------------------------------------------------------ #
    def read(self, offset: int, nbytes: int) -> Tuple[Payload, IoReport]:
        """Read guest range; unallocated clusters fall through to backing."""
        self._check(offset, nbytes)
        report = IoReport()
        parts: List[Payload] = []
        cursor = offset
        end = offset + nbytes
        while cursor < end:
            idx = cursor // self.cluster_size
            c_lo, c_hi = self._cluster_bounds(idx)
            w_hi = min(end, c_hi)
            ln = w_hi - cursor
            cluster = self._clusters.get(idx)
            if cluster is not None:
                parts.append(cluster.read(cursor - c_lo, ln))
                report.local_read_bytes += ln
            elif self.backing_read is not None:
                parts.append(self.backing_read(cursor, ln))
                report.backing_reads.append((cursor, ln))
            else:
                parts.append(Payload.zeros(ln))
            cursor = w_hi
        return Payload.concat(parts), report

    def write(self, offset: int, payload: Payload) -> IoReport:
        """Write guest range; unallocated clusters are CoW-allocated first."""
        self._check(offset, payload.size)
        report = IoReport()
        cursor = offset
        end = offset + payload.size
        while cursor < end:
            idx = cursor // self.cluster_size
            c_lo, c_hi = self._cluster_bounds(idx)
            w_hi = min(end, c_hi)
            ln = w_hi - cursor
            cluster = self._clusters.get(idx)
            if cluster is None:
                cluster = SparseFile(c_hi - c_lo)
                # Copy-on-write: materialize backing content unless the write
                # covers the whole cluster.
                if not (cursor == c_lo and w_hi == c_hi):
                    if self.backing_read is not None:
                        base = self.backing_read(c_lo, c_hi - c_lo)
                        report.backing_reads.append((c_lo, c_hi - c_lo))
                        cluster.write(0, base)
                    report.local_write_bytes += c_hi - c_lo - ln
                self._clusters[idx] = cluster
                report.clusters_allocated += 1
            cluster.write(cursor - c_lo, payload.slice(cursor - offset, w_hi - offset))
            report.local_write_bytes += ln
            cursor = w_hi
        return report

    # ------------------------------------------------------------------ #
    # file (de)serialization — what a snapshot copy physically moves
    # ------------------------------------------------------------------ #
    def serialize(self) -> Tuple[Payload, List[int]]:
        """Produce the physical qcow2 file: header + allocated clusters.

        Returns ``(file_payload, cluster_index)`` where ``cluster_index[k]``
        is the guest cluster stored at file position ``HEADER_BYTES + k *
        cluster_size`` (the L1/L2 content, serialized as a plain list).
        """
        index = sorted(self._clusters)
        parts: List[Payload] = [Payload.zeros(HEADER_BYTES)]
        for idx in index:
            parts.append(self._clusters[idx].snapshot_payload())
        return Payload.concat(parts), index

    @classmethod
    def deserialize(
        cls,
        file_payload: Payload,
        cluster_index: List[int],
        size: int,
        backing_read: Callable[[int, int], Payload] | None = None,
        cluster_size: int = DEFAULT_CLUSTER,
    ) -> "Qcow2Image":
        """Reopen a serialized qcow2 file (possibly on another machine)."""
        img = cls(size, backing_read, cluster_size=cluster_size)
        cursor = HEADER_BYTES
        for idx in cluster_index:
            c_lo, c_hi = img._cluster_bounds(idx)
            ln = c_hi - c_lo
            cluster = SparseFile(ln)
            cluster.write(0, file_payload.slice(cursor, cursor + ln))
            img._clusters[idx] = cluster
            cursor += ln
        return img
