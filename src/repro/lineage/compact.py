"""Depth-bounded chain compaction: keeping deep snapshot chains cheap to open.

Every COMMIT deepens a blob's snapshot chain, and a restore scan pays one
version-manager round-trip per ancestry hop (the qcow2 backing-chain
analogue — see :mod:`~repro.lineage.restore`). Left alone, restore latency
grows linearly with chain depth. :func:`compact_chain` bounds it with two
policies:

``flatten``
    Metadata-only. Walks the chain and writes a **skip pointer** at every
    ``depth_bound``-th position (counted from the genesis) aiming straight
    at the genesis. Any subsequent compacted walk reaches an anchor within
    ``depth_bound - 1`` raw hops and then jumps home: the scan is bounded
    by ``depth_bound + 1`` entries regardless of chain length. Nothing is
    deleted; every snapshot stays individually restorable.

``merge``
    Flatten **plus** delta-merge: interior snapshots of the target blob —
    published, not the head, not the genesis, not an anchor — are
    unpublished, surrendering their exclusive chunks to the next GC sweep.
    Anchors at ``depth_bound`` spacing (and the head and genesis) stay
    published, so restore granularity degrades gracefully instead of
    vanishing. Interior versions pinned by an in-flight restore are *not*
    lost: the registry defers their deletion until the last pin drops
    (:meth:`~repro.blobseer.vmanager.BlobRegistry.pin_version`).

The one-time compaction cost scales with chain length (one ``lineage_entry``
lookup per examined record, one serialized ``set_skip`` publish per anchor);
what it buys is an O(``depth_bound``) restore scan forever after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ..blobseer.gc import collect_garbage
from ..common.errors import LineageError
from ..simkit import rpc
from .tree import LineageForest

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.service import BlobSeerDeployment
    from ..simkit.host import Host

#: compaction policies compact_chain accepts
COMPACTION_POLICIES: Tuple[str, ...] = ("flatten", "merge")


@dataclass
class CompactReport:
    """Outcome of one chain compaction."""

    blob_id: int
    head_version: int
    policy: str
    depth_bound: int
    #: raw-parent-edge depth of the head before/after (never changes);
    #: the compacted walk is what shrinks
    depth_before: int
    #: compacted (skip-following) depth of the head after the pass
    depth_after: int
    #: lineage records examined (one lookup RPC each)
    entries_examined: int
    skips_written: int
    #: interior versions unpublished by the ``merge`` policy
    versions_merged: int
    #: bytes a post-merge GC sweep reclaimed (0 unless ``gc=True``)
    bytes_reclaimed: int
    #: simulated seconds the compaction occupied
    duration: float = 0.0


def compact_chain(
    dep: "BlobSeerDeployment",
    host: "Host",
    blob_id: int,
    version: Optional[int] = None,
    *,
    policy: str = "flatten",
    depth_bound: int = 4,
    gc: bool = False,
):
    """Process: compact the ancestry chain of ``(blob, version)``.

    ``version=None`` targets the blob's latest published snapshot. The head
    is pinned for the duration so churn retention cannot retire it mid-pass.
    With ``gc=True`` a :func:`~repro.blobseer.gc.collect_garbage` sweep runs
    after a ``merge`` and its reclaimed bytes are reported.
    """
    if policy not in COMPACTION_POLICIES:
        raise LineageError(
            f"unknown compaction policy {policy!r}; expected one of "
            f"{COMPACTION_POLICIES}"
        )
    if depth_bound < 1:
        raise LineageError(f"depth_bound must be >= 1, got {depth_bound}")
    if version is None:
        version = dep.registry.lookup(blob_id).version
    env = host.env
    t0 = env.now
    pinned = False
    with host.fabric.tracer.start(
        "lineage.compact", "lineage",
        blob=blob_id, version=version, policy=policy,
        depth_bound=depth_bound, host=host.name,
    ) as span:
        try:
            yield from rpc.call(
                host, dep.vmanager_host, "blob-vmgr", "pin_version", blob_id, version
            )
            pinned = True

            # walk the raw chain, head -> genesis, one lookup per record
            entries = []
            key = (blob_id, version)
            seen = set()
            while key is not None:
                if key in seen:
                    raise LineageError(
                        f"lineage cycle through blob {key[0]} v{key[1]}"
                    )
                seen.add(key)
                entry = yield from rpc.call(
                    host, dep.vmanager_host, "blob-vmgr", "lineage_entry",
                    key[0], key[1],
                )
                entries.append(entry)
                key = entry.parent
            depth_before = len(entries) - 1
            genesis = entries[-1].key

            # anchor positions counted from the genesis so the spacing is
            # stable as the chain keeps growing at the head
            anchors = set()
            skips_written = 0
            for i, entry in enumerate(entries):
                pos = depth_before - i  # 0 at genesis
                if pos > 0 and pos % depth_bound == 0:
                    anchors.add(entry.key)
                    if entry.skip != genesis:
                        yield from rpc.call(
                            host, dep.vmanager_host, "blob-vmgr", "set_skip",
                            entry.blob_id, entry.version, genesis,
                        )
                        skips_written += 1

            versions_merged = 0
            if policy == "merge":
                for entry in entries[1:-1]:  # never the head, never the genesis
                    if entry.blob_id != blob_id:
                        continue  # a clone source's history is not ours to merge
                    if entry.key in anchors or entry.retired:
                        continue
                    yield from rpc.call(
                        host, dep.vmanager_host, "blob-vmgr", "delete_version",
                        entry.blob_id, entry.version,
                    )
                    versions_merged += 1

            bytes_reclaimed = 0
            if gc and versions_merged:
                bytes_reclaimed = collect_garbage(dep).bytes_reclaimed

            forest = LineageForest.from_registry(dep.registry)
            depth_after = forest.depth(blob_id, version, follow_skips=True)
            report = CompactReport(
                blob_id=blob_id,
                head_version=version,
                policy=policy,
                depth_bound=depth_bound,
                depth_before=depth_before,
                depth_after=depth_after,
                entries_examined=len(entries),
                skips_written=skips_written,
                versions_merged=versions_merged,
                bytes_reclaimed=bytes_reclaimed,
                duration=env.now - t0,
            )
            host.fabric.metrics.count("lineage-compact")
            span.set(
                depth_before=depth_before, depth_after=depth_after,
                skips=skips_written, merged=versions_merged,
            )
            return report
        finally:
            if pinned:
                dep.registry.unpin_version(blob_id, version)
