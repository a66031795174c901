"""Chain merge: a retention pass over one blob's snapshot chain.

Every COMMIT adds a published snapshot, and every published snapshot is a
GC root that keeps its chunks alive. :func:`merge_chain` thins a chain by
unpublishing the target blob's interior versions — not the head, not the
genesis, and not the *anchors*: every ``keep_every``-th position counted
from the genesis, so the spacing stays stable as the chain keeps growing at
the head. Merged versions surrender their exclusive chunks to the next GC
sweep; the anchors keep restore granularity at ``keep_every`` snapshots.

A merge costs one ``lineage_entry`` lookup per chain record plus one
serialized ``delete_version`` per merged version. It does not change what a
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

    The head is pinned for the duration so churn retention cannot retire it
    mid-pass. A clone source's history is not the target blob's to merge.
    """
    if keep_every < 1:
        raise LineageError(f"keep_every must be >= 1, got {keep_every}")
    pinned = False
    with host.fabric.tracer.start(
        "lineage.merge", "lineage",
        blob=blob_id, version=version, keep_every=keep_every, host=host.name,
    ) as span:
        try:
            yield from rpc.call(
                host, dep.vmanager_host, "blob-vmgr", "pin_version", blob_id, version
            )
            pinned = True

            # walk the chain, head -> genesis, one lookup per record
            entries = []
            key = (blob_id, version)
            while key is not None:
                entry = yield from rpc.call(
                    host, dep.vmanager_host, "blob-vmgr", "lineage_entry",
                    key[0], key[1],
                )
                entries.append(entry)
                key = entry.parent

            merged = 0
            genesis_pos = len(entries) - 1
            for i, entry in enumerate(entries[1:-1], start=1):
                if entry.blob_id != blob_id or entry.retired:
                    continue
                if (genesis_pos - i) % keep_every == 0:
                    continue  # an anchor
                yield from rpc.call(
                    host, dep.vmanager_host, "blob-vmgr", "delete_version",
                    entry.blob_id, entry.version,
                )
                merged += 1

            host.fabric.metrics.count("lineage-merge")
            span.set(chain=len(entries), merged=merged)
            return merged
        finally:
            if pinned:
                dep.registry.unpin_version(blob_id, version)
