"""Restore-to-version: boot a VM *back* from any historical snapshot.

The forward path (deploy, snapshot) never needs more than the latest
version; going back means reopening an arbitrary point of a snapshot
chain. :func:`restore_to_version` is a simulation process that:

1. **pins** the source version at the version manager — a refcounted lease
   that defers any concurrent retention ``delete_version`` / teardown
   ``delete_blob`` until the restore is done (see
   :meth:`~repro.blobseer.vmanager.BlobRegistry.pin_version`);
2. **scans** the ancestry chain (``lineage.scan``): one ``lineage_entry``
   RPC per hop from the target back to its genesis, honoring compaction
   skip pointers. This is the depth-dependent cost of restore — the
   analogue of opening each backing file of a qcow2 chain — and exactly
   what :mod:`~repro.lineage.compact` exists to bound;
3. for a **retired** source, verifies its chunks still exist on the data
   providers (a version unpublished *and* swept by GC is unrestorable —
   :class:`~repro.common.errors.LineageError`) and pins the chunks and
   metadata nodes in-flight so a sweep racing the restore cannot reclaim
   them mid-clone;
4. **clones** the source through the lineage log (``clone_lineage``),
   publishing the restored branch as a brand-new lineage head whose parent
   edge points at the historical version — rollback as a branch, never a
   rewrite;
5. opens a lazy :class:`~repro.vmsim.backends.MirrorBackend` on the clone
   (the p2p fetch path is reused automatically when the deployment has a
   peer network) and, when an image is supplied, boots a VM from it.

Restore latency is reported *excluding* the guest boot (scan + pin +
clone + VFS open); the boot time rides along separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..blobseer.metadata import reachable_nodes
from ..common.errors import LineageError
from ..simkit import rpc
from ..vmsim.backends import MirrorBackend

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.service import BlobSeerDeployment
    from ..simkit.host import Host


@dataclass
class RestoreResult:
    """Outcome of one restore-to-version."""

    #: the historical snapshot that was restored
    source: Tuple[int, int]
    #: the restored branch head (a fresh clone blob, version 1)
    blob_id: int
    version: int
    #: ancestry hops the scan paid (one lineage_entry RPC each)
    scan_hops: int
    #: the walked chain, target first, genesis last
    chain: Tuple[Tuple[int, int], ...]
    #: whether the source was already unpublished when restored
    retired_source: bool
    # -- simulated timings (seconds) ---------------------------------- #
    scan_time: float = 0.0
    clone_time: float = 0.0
    open_time: float = 0.0
    #: pin + scan + clone + VFS open (excludes the guest boot)
    restore_time: float = 0.0
    boot_time: Optional[float] = None
    # -- live objects (not serialized anywhere) ------------------------ #
    backend: Optional[MirrorBackend] = field(default=None, repr=False)
    vm: Optional[object] = field(default=None, repr=False)


def _scan_chain(dep: "BlobSeerDeployment", host: "Host", blob_id: int, version: int):
    """Walk the ancestry via per-hop version-manager RPCs; returns entries."""
    entries = []
    key: Optional[Tuple[int, int]] = (blob_id, version)
    seen = set()
    while key is not None:
        if key in seen:
            raise LineageError(f"lineage cycle through blob {key[0]} v{key[1]}")
        seen.add(key)
        entry = yield from rpc.call(
            host, dep.vmanager_host, "blob-vmgr", "lineage_entry", key[0], key[1]
        )
        entries.append(entry)
        key = entry.next_hop()
    return entries


def _verify_chunks(dep: "BlobSeerDeployment", root, blob_id: int, version: int):
    """Every chunk of a retired source must still sit on some provider."""
    for nid in reachable_nodes(dep.metadata, root):
        ref = dep.metadata.get(nid).ref
        if ref is None:
            continue
        if not any(
            dep.data_services[name].store.has(ref.key) for name in ref.providers
        ):
            raise LineageError(
                f"blob {blob_id} v{version} cannot be restored: chunk "
                f"{ref.key} was garbage-collected after the version retired"
            )


def restore_to_version(
    dep: "BlobSeerDeployment",
    host: "Host",
    blob_id: int,
    version: int,
    *,
    image=None,
    boot_model=None,
    vm_rng=None,
    trace=None,
    fuse=None,
    path: Optional[str] = None,
    name: Optional[str] = None,
    full_chunk_prefetch: bool = True,
):
    """Process: restore ``(blob, version)`` on ``host``; returns the result.

    With ``image`` (plus ``boot_model``, ``vm_rng`` and a boot ``trace``)
    the restored clone is booted through a fresh
    :class:`~repro.vmsim.hypervisor.VMInstance`; without it the backend is
    opened and handed back unbooted (engines that drive their own guest).
    """
    env = host.env
    tracer = host.fabric.tracer
    t0 = env.now
    pinned_keys: List[int] = []
    pinned_nodes: List[int] = []
    pinned_version = False
    with tracer.start(
        "lineage.restore", "lineage", blob=blob_id, version=version, host=host.name,
    ) as span:
        try:
            # 1. lease the source so retention/teardown deletes defer
            yield from rpc.call(
                host, dep.vmanager_host, "blob-vmgr", "pin_version", blob_id, version
            )
            pinned_version = True

            # 2. ancestry scan: the depth-dependent chain-open cost
            t_scan = env.now
            with tracer.start(
                "lineage.scan", "lineage", blob=blob_id, version=version,
            ) as scan_span:
                entries = yield from _scan_chain(dep, host, blob_id, version)
                scan_span.set(hops=len(entries))
            scan_time = env.now - t_scan
            target = entries[0]

            # 3. a retired source is only restorable until GC reclaims it;
            #    pin its chunks/nodes so a sweep racing the clone cannot win
            if target.retired:
                for nid in reachable_nodes(dep.metadata, target.root):
                    pinned_nodes.append(nid)
                    ref = dep.metadata.get(nid).ref
                    if ref is not None:
                        pinned_keys.append(ref.key)
                dep.pin_inflight(keys=pinned_keys, nodes=pinned_nodes)
                _verify_chunks(dep, target.root, blob_id, version)

            # 4. publish the restored branch as a new lineage head
            t_clone = env.now
            rec = yield from rpc.call(
                host, dep.vmanager_host, "blob-vmgr", "clone_lineage",
                blob_id, version,
            )
            clone_time = env.now - t_clone

            # 5. lazy mirror open on the clone (p2p path reused when enabled)
            t_open = env.now
            backend = MirrorBackend(
                host, dep, rec.blob_id, rec.version, fuse,
                path=path or f"/mirror/restore-b{blob_id}v{version}",
                full_chunk_prefetch=full_chunk_prefetch,
            )
            yield from backend.open()
            open_time = env.now - t_open
            restore_time = env.now - t0

            result = RestoreResult(
                source=(blob_id, version),
                blob_id=rec.blob_id,
                version=rec.version,
                scan_hops=len(entries),
                chain=tuple(e.key for e in entries),
                retired_source=bool(target.retired),
                scan_time=scan_time,
                clone_time=clone_time,
                open_time=open_time,
                restore_time=restore_time,
                backend=backend,
            )
            host.fabric.metrics.count("lineage-restore")

            if image is not None:
                from ..vmsim.hypervisor import VMInstance

                vm = VMInstance(
                    name or f"restore-b{blob_id}v{version}", host, backend,
                    boot_model, vm_rng,
                )
                yield from vm.boot(trace)
                result.vm = vm
                result.boot_time = vm.boot_time
            span.set(
                hops=result.scan_hops, restored_blob=rec.blob_id,
                retired_source=result.retired_source,
            )
            return result
        finally:
            # pure-state unpins: no simulated cost, never leaks a lease
            if pinned_keys or pinned_nodes:
                dep.unpin_inflight(keys=pinned_keys, nodes=pinned_nodes)
            if pinned_version:
                dep.registry.unpin_version(blob_id, version)
