"""Exception hierarchy for the reproduction library.

All library-defined exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class SimulationError(ReproError):
    """Internal inconsistency detected by the discrete-event engine."""


class InterruptedError_(ReproError):
    """A simulated process was interrupted while waiting on an event.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`InterruptedError` (which has OS-signal semantics).
    """

    def __init__(self, cause: object = None):
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class StorageError(ReproError):
    """Base class for storage-service failures (BlobSeer, PVFS, NFS)."""


class UnknownBlobError(StorageError):
    """Lookup of a blob id that was never created (or has been deleted)."""


class UnknownVersionError(StorageError):
    """Lookup of a snapshot version that was never published for a blob."""


class ChunkNotFoundError(StorageError):
    """A data provider was asked for a chunk key it does not hold."""


class LineageError(StorageError):
    """Invalid snapshot-lineage operation (restore, pinning, merge).

    Raised e.g. when restoring a retired version whose chunks were already
    garbage-collected, or when a merge keeps every ``k < 1``-th version.
    """


class ProviderUnavailableError(StorageError):
    """The targeted data provider is offline (failure-injection runs)."""


class OutOfRangeError(StorageError):
    """A read or write exceeds the addressed object's size."""


class ImageFormatError(ReproError):
    """Malformed on-disk structure in the qcow2-like image format."""


class MirrorStateError(ReproError):
    """Invalid operation on the mirroring VFS (e.g. I/O on a closed handle)."""


class MiddlewareError(ReproError):
    """Cloud-middleware level orchestration failure."""
