"""One instance lifecycle through the middleware (§3.2, Fig. 1).

The only place that builds a :class:`~repro.vmsim.hypervisor.VMInstance` or
an image backend. Every caller — deploy, resilience sweep, churn, restore,
resume, benchmark point — takes the same steps: **open** a backend (a
mirror at a ``(blob, version)``, which is all a resume or a restore is, or
a baseline after its init phase), **draw** the RNG streams it names,
**boot** (spawned on the VM's host or inline; :func:`guarded` is the one
failure path), **snapshot** (local diff, CLONE + COMMIT) and **tear down**.
Callers name the instances, mirror paths and streams, so a timeline does
not depend on which caller asked.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..baselines.prepropagation import LOCAL_IMAGE_PATH, prepropagate
from ..common.errors import InterruptedError_, MiddlewareError, StorageError
from ..simkit import rpc
from ..vmsim.backends import LocalRawBackend, MirrorBackend, Qcow2PvfsBackend
from ..vmsim.boottrace import boot_trace
from ..vmsim.hypervisor import VMInstance
from ..vmsim.workloads import read_your_writes_workload

APPROACHES = ("prepropagation", "qcow2-pvfs", "mirror")
#: the initial image in the NFS and PVFS repositories (the qcow2 backing file)
IMAGE_PATH = "/images/initial.raw"
#: a crash of the VM's host interrupts it; a storage fault that outlived
#: the client's retries surfaces as a StorageError
FAULTS = (StorageError, InterruptedError_)


def open_mirror(host, dep, at: Tuple[int, int], fuse, path=None, prefetch=True):
    """A mirror of snapshot ``at`` = ``(blob_id, version)`` at ``path`` on ``host``."""
    return MirrorBackend(
        host, dep, at[0], at[1], fuse, path=path, full_chunk_prefetch=prefetch,
    )


def open_backend(cloud, approach: str, host, at=None, path=None, prefetch=True):
    """``approach``'s backend on ``host``: the local raw copy a broadcast
    left, a qcow2 file over the PVFS image, or a mirror of ``at`` at ``path``."""
    if approach == "prepropagation":
        return LocalRawBackend(host, LOCAL_IMAGE_PATH, cloud.calib.fuse)
    if approach == "qcow2-pvfs":
        if cloud.pvfs is None:
            raise MiddlewareError("cloud built without PVFS")
        return Qcow2PvfsBackend(host, cloud.pvfs, IMAGE_PATH, cloud.calib.fuse)
    if approach == "mirror":
        return open_mirror(host, cloud.blobseer, at, cloud.calib.fuse, path, prefetch)
    raise MiddlewareError(f"unknown approach {approach!r}; pick one of {APPROACHES}")


def new_vm(name: str, backend, rng: Sequence, boot_model) -> VMInstance:
    """VM ``name`` over ``backend``; its hypervisor jitter draws from stream ``rng``."""
    host = backend.host
    return VMInstance(name, host, backend, boot_model, host.fabric.rng.get(*rng))


def open_fleet(cloud, approach: str, n_instances: int, idents: dict, prefetch=True):
    """Process body: ``approach``'s init phase on the first ``n_instances``
    compute nodes (a broadcast, or one qcow2 file each), then a VM per node:
    ``vm{i:03d}``, mirrored at ``/mirror/vm{i:03d}``, jitter from stream
    ``("vm", approach, i)``. Returns the VMs, not yet booted."""
    if not 0 <= n_instances <= len(cloud.compute):
        raise MiddlewareError(
            f"{n_instances} instances: a count cannot be negative or exceed "
            f"the {len(cloud.compute)} compute nodes"
        )
    env, tracer = cloud.env, cloud.fabric.tracer
    nodes = cloud.compute[:n_instances]
    service = cloud.calib.service
    if approach == "prepropagation":
        with tracer.start("init-phase", "init", approach=approach):
            yield from prepropagate(
                cloud.fabric, cloud.nfs, idents["nfs"], nodes,
                fanout=service.broadcast_fanout,
            )
    elif approach == "qcow2-pvfs":
        def create_qcow2():
            yield env.timeout(service.qcow2_create_overhead)

        with tracer.start("init-phase", "init", approach=approach):
            yield env.all_of(env.process_batch(create_qcow2() for _ in nodes))
    at = (idents["blobseer"].blob_id, idents["blobseer"].version)
    return [
        new_vm(
            f"vm{i:03d}",
            open_backend(cloud, approach, node, at, f"/mirror/vm{i:03d}", prefetch),
            ("vm", approach, i), cloud.calib.boot,
        )
        for i, node in enumerate(nodes)
    ]


def boot(vm: VMInstance, image, trace: Sequence):
    """``vm``'s boot (a generator) on a boot trace drawn from stream ``trace``."""
    rng = vm.host.fabric.rng.get(*trace)
    return vm.boot(boot_trace(image, vm.boot_model, rng))


def guarded(vm: VMInstance, body, failed: Optional[dict] = None):
    """Run ``body``, a process body of ``vm``; a fault that kills it is
    counted — ``boot-failed``, or ``vm-failed`` once booted — and recorded
    in ``failed`` (VM name -> exception class), not raised, and the dead
    VM's mirror is dropped. Returns ``body``'s value, None after a failure."""
    try:
        return (yield from body)
    except FAULTS as exc:
        if failed is not None:
            failed[vm.name] = type(exc).__name__
        vm.host.fabric.metrics.count(
            "boot-failed" if vm.boot_time is None else "vm-failed"
        )
        # as a teardown does, drop its mirror file, persisted state and
        # handle (pure state, no simulated time)
        if isinstance(vm.backend, MirrorBackend) and vm.backend.handle is not None:
            vm.backend.handle.local.unlink()


def spawn_boots(vms: Sequence[VMInstance], image, stream: Tuple, failed=None) -> List:
    """Start every VM's boot on its host (a crash of the host kills it), VM
    ``i`` on trace stream ``(*stream, i)``; with ``failed``, :func:`guarded`."""
    procs = []
    for i, vm in enumerate(vms):
        body = boot(vm, image, (*stream, i))
        if failed is not None:
            body = guarded(vm, body, failed)
        procs.append(vm.host.spawn(body, name=f"boot-{vm.name}"))
    return procs


def write_diff(vm: VMInstance, image, diff_bytes: int, stream: Sequence):
    """``vm``'s §5.3 local modifications (a generator): ``diff_bytes`` of
    read-your-writes at the image's write base, drawn from stream ``stream``."""
    ops = read_your_writes_workload(
        image.write_base, diff_bytes, vm.host.fabric.rng.get(*stream),
        reread_fraction=0.05,
    )
    return vm.run_ops(ops)


def snapshot(vm: VMInstance, image, diff_bytes: int, diff: Sequence):
    """Generator: write a local diff (none if ``diff_bytes`` is 0), then
    CLONE (the first time) + COMMIT; returns the SnapshotResult."""
    if diff_bytes > 0:
        yield from write_diff(vm, image, diff_bytes, diff)
    return (yield from vm.backend.snapshot())


def teardown(vm: VMInstance, blob: Optional[int] = None):
    """Generator: shut ``vm`` down, drop its mirror file and persisted state
    (node storage stays bounded) — unless it died booting, when
    :func:`guarded` dropped them — and, given ``blob``, unpublish that blob."""
    if vm.boot_time is not None:
        yield from vm.shutdown()
        vm.backend.handle.local.unlink()
    if blob is not None:
        dep = vm.backend.deployment
        yield from rpc.call(vm.host, dep.vmanager_host, "blob-vmgr", "delete_blob", blob)
