"""Restore-to-version: boot a VM *back* from any historical snapshot.

The forward path (deploy, snapshot) never needs more than the latest
version; going back means reopening an arbitrary point of a snapshot
chain. :func:`restore_to_version` is a simulation process that:

1. **pins** the source version at the version manager — a refcounted lease
   that defers any concurrent retention ``delete_version`` / teardown
   ``delete_blob`` until the restore is done (see
   :meth:`~repro.blobseer.vmanager.BlobRegistry.pin_version`);
2. **looks up** the target's own lineage record: one ``lineage_entry``
   RPC, whatever the chain depth. Shadowing and cloning make every snapshot
   a standalone image (§3.1, Fig. 3): its metadata root reaches every chunk
   it needs, so no ancestor is read — unlike a qcow2 backing chain, whose
   open pays one file per ancestor;
3. for a **retired** source, verifies its chunks still exist on the data
   providers (a version unpublished *and* swept by GC is unrestorable —
   :class:`~repro.common.errors.LineageError`) and pins the chunks and
   metadata nodes in-flight so a sweep racing the restore cannot reclaim
   them mid-clone;
4. **clones** the source through the lineage log (``clone_lineage``),
   publishing the restored branch as a brand-new lineage head whose parent
   edge points at the historical version — rollback as a branch, never a
   rewrite;
5. **resumes** at the clone like any snapshot (:mod:`repro.cloud.instance`):
   a lazy mirror open, then, given an image, a VM booted from it.

Restore latency is reported *excluding* the guest boot (pin + lookup +
clone + VFS open); the boot time rides along separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..blobseer.metadata import reachable_nodes
from ..cloud import instance
from ..common.errors import LineageError
from ..simkit import rpc

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.service import BlobSeerDeployment
    from ..simkit.host import Host
    from ..vmsim.backends import MirrorBackend


@dataclass
class RestoreResult:
    """Outcome of one restore-to-version."""

    #: the historical snapshot that was restored
    source: Tuple[int, int]
    #: the restored branch head (a fresh clone blob, version 1)
    blob_id: int
    version: int
    #: whether the source was already unpublished when restored
    retired_source: bool
    # -- simulated timings (seconds) ---------------------------------- #
    #: the one lineage_entry lookup
    lookup_time: float = 0.0
    clone_time: float = 0.0
    open_time: float = 0.0
    #: pin + lookup + clone + VFS open (excludes the guest boot)
    restore_time: float = 0.0
    boot_time: Optional[float] = None
    # -- live objects (not serialized anywhere) ------------------------ #
    backend: Optional["MirrorBackend"] = field(default=None, repr=False)
    vm: Optional[object] = field(default=None, repr=False)


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
):
    """Process: restore ``(blob, version)`` on ``host``; returns the result.

    The clone is mirrored at ``path`` (default: unique per restore). With
    ``image`` (plus ``boot_model``) it boots inline, drawing from the RNG
    streams named ``vm_rng`` (hypervisor jitter) and ``trace`` (boot trace);
    a boot a fault kills is counted and leaves ``boot_time`` None. Without
    an image the backend is opened and handed back unbooted.
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

            # 2. the target's own record: its root reaches every chunk
            t_lookup = env.now
            target = yield from rpc.call(
                host, dep.vmanager_host, "blob-vmgr", "lineage_entry",
                blob_id, version,
            )
            lookup_time = env.now - t_lookup

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

            # 5. resume at the clone: a lazy mirror open (the p2p fetch path
            #    is reused when enabled), then the boot
            t_open = env.now
            backend = instance.open_mirror(
                host, dep, (rec.blob_id, rec.version), fuse,
                path or f"/mirror/restore-b{rec.blob_id}",
            )
            yield from backend.open()
            open_time = env.now - t_open
            restore_time = env.now - t0

            result = RestoreResult(
                source=(blob_id, version),
                blob_id=rec.blob_id,
                version=rec.version,
                retired_source=target.retired,
                lookup_time=lookup_time,
                clone_time=clone_time,
                open_time=open_time,
                restore_time=restore_time,
                backend=backend,
            )
            host.fabric.metrics.count("lineage-restore")

            if image is not None:
                vm = result.vm = instance.new_vm(
                    f"restore-b{blob_id}v{version}", backend, vm_rng, boot_model,
                )
                yield from instance.guarded(vm, instance.boot(vm, image, trace))
                result.boot_time = vm.boot_time
            span.set(
                restored_blob=rec.blob_id, retired_source=result.retired_source,
            )
            return result
        finally:
            # pure-state unpins: no simulated cost, never leaks a lease
            if pinned_keys or pinned_nodes:
                dep.unpin_inflight(keys=pinned_keys, nodes=pinned_nodes)
            if pinned_version:
                dep.registry.unpin_version(blob_id, version)
