"""The prepropagation deployment scheme (baseline #1, §5.2).

Phase 1: broadcast the full raw image from the NFS server to the local disk
of every compute node that will run a VM (taktuk tree). Phase 2 (hypervisor
launch on the now-local image) is orchestrated by
:mod:`repro.cloud.deployment`; this module owns phase 1 only.
"""

from __future__ import annotations

from typing import Generator, Sequence

from ..simkit.host import Fabric, Host
from .broadcast import BroadcastReport, broadcast
from .nfs import NfsServer

#: where every target holds the raw image once the broadcast completes
LOCAL_IMAGE_PATH = "/local/image.raw"


def prepropagate(
    fabric: Fabric,
    nfs: NfsServer,
    image_path: str,
    targets: Sequence[Host],
    fanout: int = 2,
    block_size: int | None = None,
) -> Generator:
    """Broadcast the image stored on the NFS server to all targets.

    Returns the :class:`~repro.baselines.broadcast.BroadcastReport`; after it
    completes every target holds the raw image at :data:`LOCAL_IMAGE_PATH`.
    """
    size = nfs.stat(image_path)
    payload = nfs._files[image_path].read(0, size)
    report = yield from broadcast(
        fabric,
        nfs.host,
        targets,
        payload,
        LOCAL_IMAGE_PATH,
        fanout=fanout,
        block_size=block_size,
    )
    return report
