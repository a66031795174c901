"""Exact per-version sharing accounting over the segment-tree metadata.

Shadowing (and content-addressed dedup) make repository footprint a shared
resource: a chunk written for one snapshot may be referenced by dozens of
later versions and clones. This module walks every *published* snapshot's
segment tree and computes, per version:

* **exclusive bytes** — physical bytes of chunks only this version
  references (what a GC sweep would reclaim if exactly this version were
  unpublished — so ``reclaimable-if-deleted`` equals it);
* **shared bytes** — physical bytes of this version's chunks that at least
  one other published version also references.

"Physical" counts every replica (``len(ref.providers)`` copies per chunk),
matching :meth:`~repro.blobseer.service.BlobSeerDeployment.stored_bytes`.
The accounting **conserves bytes by construction**: the sum of all
per-version exclusive bytes plus the shared pool (each shared chunk counted
once) equals the live repository footprint — and after a
:func:`~repro.blobseer.gc.collect_garbage` sweep the live footprint equals
the providers' stored bytes exactly, which is the benchmark's conservation
gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Set, Tuple

from ..blobseer.metadata import reachable_nodes

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.service import BlobSeerDeployment


@dataclass(frozen=True)
class VersionSharing:
    """One published snapshot's footprint attribution."""

    blob_id: int
    version: int
    #: distinct chunks this version references
    chunks: int
    #: physical bytes only this version references (== reclaimable-if-deleted)
    exclusive_bytes: int
    #: physical bytes shared with at least one other published version
    shared_bytes: int


@dataclass(frozen=True)
class DedupReport:
    """Whole-repository sharing accounting at one instant."""

    per_version: Tuple[VersionSharing, ...]
    #: sum of every version's exclusive bytes
    total_exclusive: int
    #: bytes of the shared pool, each shared chunk counted exactly once
    total_shared: int
    #: live physical footprint: every chunk reachable from a published
    #: snapshot, every replica counted
    live_bytes: int
    #: providers' stored bytes at report time (includes garbage a sweep
    #: has not reclaimed yet; equals ``live_bytes`` right after GC)
    stored_bytes: int

    def conserves(self) -> bool:
        """Exclusive + shared must add up to the live footprint, always."""
        return self.total_exclusive + self.total_shared == self.live_bytes

    def matches_footprint(self) -> bool:
        """Whether the accounted live bytes equal the physical repository.

        True only when no unreclaimed garbage exists — i.e. immediately
        after a :func:`~repro.blobseer.gc.collect_garbage` sweep.
        """
        return self.live_bytes == self.stored_bytes

    def sharing_ratio(self) -> float:
        """Fraction of the live footprint that is shared between versions."""
        return self.total_shared / self.live_bytes if self.live_bytes else 0.0


def dedup_accounting(deployment: "BlobSeerDeployment") -> DedupReport:
    """Walk every published snapshot's tree and attribute the footprint.

    Pure analysis over registry + central metadata state: no simulated time,
    no RPCs, no RNG — safe to call from benchmarks and engines without
    perturbing any timeline.
    """
    registry = deployment.registry
    metadata = deployment.metadata

    # distinct chunk keys per published version, and each key's physical size
    per_version_keys: Dict[Tuple[int, int], Set[int]] = {}
    key_bytes: Dict[int, int] = {}
    for rec in registry.live_records():
        keys: Set[int] = set()
        for nid in reachable_nodes(metadata, rec.root):
            ref = metadata.get(nid).ref
            if ref is not None:
                keys.add(ref.key)
                key_bytes.setdefault(ref.key, ref.size * len(ref.providers))
        per_version_keys[(rec.blob_id, rec.version)] = keys

    refcount: Dict[int, int] = {}
    for keys in per_version_keys.values():
        for key in keys:
            refcount[key] = refcount.get(key, 0) + 1

    rows = []
    for (blob_id, version), keys in sorted(per_version_keys.items()):
        exclusive = sum(key_bytes[k] for k in keys if refcount[k] == 1)
        shared = sum(key_bytes[k] for k in keys if refcount[k] > 1)
        rows.append(VersionSharing(
            blob_id=blob_id, version=version, chunks=len(keys),
            exclusive_bytes=exclusive, shared_bytes=shared,
        ))

    total_exclusive = sum(r.exclusive_bytes for r in rows)
    total_shared = sum(b for k, b in key_bytes.items() if refcount[k] > 1)
    live_bytes = sum(key_bytes.values())
    return DedupReport(
        per_version=tuple(rows),
        total_exclusive=total_exclusive,
        total_shared=total_shared,
        live_bytes=live_bytes,
        stored_bytes=deployment.stored_bytes(),
    )
