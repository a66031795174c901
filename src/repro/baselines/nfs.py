"""A central NFS-like file server (the prepropagation source, §5.2).

The paper stores the initial 2 GB image on an NFS server with a single
GigE interface, "similar in configuration to the compute nodes". What the
reproduction needs is where the image lives: prepropagation broadcasts it
from this one host, whose NIC and disk every copy starts behind (the
contention that motivates broadcast trees in the first place). No VM
mounts NFS, so the server has no read/write RPCs.
"""

from __future__ import annotations

from typing import Dict

from ..common.errors import StorageError
from ..common.payload import Payload, SparseFile
from ..simkit.host import Host


class NfsServer:
    """The host that holds the image; prepropagation reads it from here."""

    def __init__(self, host: Host):
        self.host = host
        self._files: Dict[str, SparseFile] = {}

    # ------------------------------------------------------------------ #
    def put_file(self, path: str, payload: Payload) -> None:
        """Setup injection: place a file on the server at time zero."""
        f = SparseFile(payload.size)
        f.write(0, payload)
        self._files[path] = f

    def stat(self, path: str) -> int:
        f = self._files.get(path)
        if f is None:
            raise StorageError(f"nfs: no such file {path!r}")
        return f.size
