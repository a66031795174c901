"""High-level convenience API over the mirroring VFS.

Most callers (examples, the cloud middleware, tests) want a one-liner to
mount a repository snapshot on a compute node; :func:`mount` provides it.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..blobseer.service import BlobSeerDeployment
from ..calibration import FuseModel
from ..simkit.host import Host
from .vfs import MirrorVFS


def mount(
    host: Host,
    deployment: BlobSeerDeployment,
    blob_id: int,
    version: Optional[int] = None,
    path: Optional[str] = None,
    fuse: Optional[FuseModel] = None,
) -> Generator:
    """Open a repository snapshot as a mirrored local image on ``host``.

    Process-style helper::

        handle = yield from mount(node, deployment, blob_id, version)
        data = yield from handle.read(0, 4096)

    Returns a :class:`~repro.core.vfs.MirrorHandle`.
    """
    vfs = MirrorVFS(host, deployment.client(host), fuse)
    handle = yield from vfs.open(blob_id, version, path)
    return handle
