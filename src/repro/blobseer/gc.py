"""Garbage collection of unpublished snapshots.

Shadowing means snapshots share chunks and metadata nodes, so nothing can be
deleted eagerly: a chunk written for snapshot v3 of a clone may be read
forever through snapshot v7 of another clone. Reclamation is therefore a
reachability sweep:

1. the *root set* is every snapshot still published in the
   :class:`~repro.blobseer.vmanager.BlobRegistry`;
2. metadata nodes reachable from any live root stay; all others are dropped
   from their metadata shards;
3. chunk keys referenced by any live leaf stay; all other chunks are
   discarded from their data providers.

The sweep is exact (no refcounts to maintain on the write path, which keeps
COMMIT latency unchanged) and idempotent. One subtlety: a COMMIT in flight
has already PUT chunks and scattered metadata nodes that no published root
reaches until its final publish lands; those are pinned via
:meth:`~repro.blobseer.service.BlobSeerDeployment.pin_inflight` and treated
as live, so a sweep racing a commit (or a long-horizon churn run with
periodic GC) never reclaims chunks the imminent snapshot will reference. Content-addressed deduplication
(:class:`~repro.blobseer.service.BlobSeerDeployment` with ``dedup=True``)
composes naturally: a deduplicated chunk survives as long as *any* snapshot
references it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set, TYPE_CHECKING

from .metadata import reachable_nodes

if TYPE_CHECKING:  # pragma: no cover
    from .service import BlobSeerDeployment


@dataclass
class GcReport:
    """Outcome of one collection sweep."""

    live_snapshots: int
    nodes_kept: int
    nodes_dropped: int
    chunks_kept: int
    chunks_dropped: int
    bytes_reclaimed: int


def collect_garbage(deployment: "BlobSeerDeployment") -> GcReport:
    """Reclaim every chunk and metadata node unreachable from live snapshots."""
    registry = deployment.registry
    metadata = deployment.metadata

    # 1. roots
    live = registry.live_records()

    # 2. metadata reachability
    live_nodes: Set[int] = set()
    for rec in live:
        live_nodes |= reachable_nodes(metadata, rec.root)
    # in-flight commits: nodes already scattered whose publish has not
    # landed yet are invisible from the roots but must survive
    # (see BlobSeerDeployment.pin_inflight)
    live_nodes |= set(deployment.inflight_nodes)

    # 3. chunk reachability (leaves of live trees)
    live_keys: Set[int] = set()
    for nid in live_nodes:
        node = metadata.get(nid)
        if node.ref is not None:
            live_keys.add(node.ref.key)
    # likewise for chunks already PUT by an in-flight commit
    live_keys |= set(deployment.inflight_keys)

    # 4. sweep metadata shards
    nodes_dropped = 0
    for shard in deployment.meta_services.values():
        dead = [nid for nid in shard.nodes if nid not in live_nodes]
        for nid in dead:
            del shard.nodes[nid]
        nodes_dropped += len(dead)

    # 5. sweep data providers
    chunks_dropped = 0
    bytes_reclaimed = 0
    chunks_kept = 0
    for provider in deployment.data_services.values():
        dead = [key for key in provider.store.keys() if key not in live_keys]
        for key in dead:
            bytes_reclaimed += provider.store.get(key).size
            provider.store.discard(key)
        chunks_dropped += len(dead)
        chunks_kept += len(provider.store)

    # 6. dedup index entries pointing at collected chunks are stale
    if deployment.dedup_index is not None:
        stale = [fp for fp, ref in deployment.dedup_index.items() if ref.key not in live_keys]
        for fp in stale:
            del deployment.dedup_index[fp]

    return GcReport(
        live_snapshots=len(live),
        nodes_kept=len(live_nodes),
        nodes_dropped=nodes_dropped,
        chunks_kept=chunks_kept,
        chunks_dropped=chunks_dropped,
        bytes_reclaimed=bytes_reclaimed,
    )
