"""Chain merge: a retention pass over one blob's snapshot chain.

Every COMMIT adds a published snapshot, and every published snapshot is a
GC root that keeps its chunks alive. :func:`merge_chain` thins a chain by
unpublishing the target blob's interior versions — not the head, not the
genesis, and not the *anchors*: every ``keep_every``-th position counted
from the genesis, so the spacing stays stable as the chain keeps growing at
the head. Merged versions surrender their exclusive chunks to the next GC
sweep; the anchors keep restore granularity at ``keep_every`` snapshots.

The merge runs where the lineage log lives: one serialized ``merge_chain``
RPC to the version manager (:meth:`~repro.blobseer.vmanager.BlobRegistry.merge_chain`),
priced like retiring a whole blob. One serialized pass cannot interleave
with another version-manager call, so it takes no lease. It does not change what a
restore pays: every snapshot is a standalone image (see
:mod:`~repro.lineage.restore`). Interior versions pinned by an in-flight
restore are *not* lost: the registry defers their deletion until the last
pin drops (:meth:`~repro.blobseer.vmanager.BlobRegistry.pin_version`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..common.errors import LineageError
from ..simkit import rpc

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.service import BlobSeerDeployment
    from ..simkit.host import Host


def merge_chain(
    dep: "BlobSeerDeployment",
    host: "Host",
    blob_id: int,
    version: int,
    *,
    keep_every: int,
):
    """Process: unpublish the interior versions of ``(blob, version)``'s
    chain that are not anchors; returns how many it merged.

    A clone source's history is not the target blob's to merge.
    """
    if keep_every < 1:
        raise LineageError(f"keep_every must be >= 1, got {keep_every}")
    with host.fabric.tracer.start(
        "lineage.merge", "lineage",
        blob=blob_id, version=version, keep_every=keep_every, host=host.name,
    ) as span:
        merged = yield from rpc.call(
            host, dep.vmanager_host, "blob-vmgr", "merge_chain",
            blob_id, version, keep_every,
        )
        host.fabric.metrics.count("lineage-merge")
        span.set(merged=merged)
        return merged
