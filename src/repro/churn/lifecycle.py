"""Per-instance lifecycle processes: boot -> run -> snapshot* -> teardown.

Each placed :class:`~repro.churn.arrivals.DeployRequest` becomes one
:class:`VmRuntime` driven by a single simulation process
(:func:`run_instance`), which takes the one instance lifecycle of
:mod:`repro.cloud.instance`: a mirror of the tenant's image on the placed
node, a boot, then snapshots (local diff + CLONE + COMMIT, pruned to the
newest few) as the dispatcher delivers them, and a teardown that unlinks
the local mirror, unpublishes the retired lineage for the next GC sweep and
releases the slot — which may immediately pop queued deploys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from ..cloud import instance
from ..simkit import rpc
from ..vmsim.hypervisor import VMInstance
from .arrivals import DeployRequest

if TYPE_CHECKING:  # pragma: no cover
    from .engine import ChurnEngine


class VmRuntime:
    """Control-plane state of one placed instance."""

    __slots__ = (
        "req", "node", "state", "snap_pending", "teardown_flag",
        "proc", "published", "retired", "_wake",
    )

    def __init__(self, req: DeployRequest, node: int):
        self.req = req
        self.node = node
        self.state = "placed"  # placed -> booting -> running -> done
        self.snap_pending = 0
        self.teardown_flag = False
        self.proc = None
        #: (blob_id, version) of every still-published mid-life snapshot
        self.published: List[Tuple[int, int]] = []
        #: snapshots unpublished at teardown — restore targets until the
        #: next GC sweep reclaims their chunks (see RestoreRequest)
        self.retired: List[Tuple[int, int]] = []
        self._wake = None

    # -- dispatcher side ------------------------------------------------ #
    def deliver_snapshot(self) -> None:
        self.snap_pending += 1
        self._trigger()

    def deliver_teardown(self) -> None:
        self.teardown_flag = True
        self._trigger()

    def _trigger(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()


def run_instance(engine: "ChurnEngine", rt: VmRuntime):
    """The lifecycle process of one placed deploy (a generator); its whole
    life is :func:`~repro.cloud.instance.guarded`, so a fault is counted."""
    cloud = engine.cloud
    req = rt.req
    rec = engine.tenant_images[req.tenant]
    backend = instance.open_mirror(
        cloud.compute[rt.node], cloud.blobseer, (rec.blob_id, rec.version),
        cloud.calib.fuse, f"/mirror/churn-r{req.req_id}",
    )
    vm = instance.new_vm(
        f"churn-{req.req_id:05d}", backend, ("churn-vm", req.req_id), cloud.calib.boot,
    )
    return instance.guarded(vm, _live(engine, rt, vm))


def _live(engine: "ChurnEngine", rt: VmRuntime, vm: VMInstance):
    """Boot, serve snapshot requests until the teardown, tear down, release."""
    env = engine.cloud.env
    req = rt.req
    try:
        with engine.cloud.fabric.tracer.start(
            f"churn:vm:{req.req_id}", "churn", tenant=req.tenant, node=rt.node,
        ):
            booting = instance.boot(vm, engine.image, ("churn-trace", req.req_id))
            rt.state = "booting"
            queue_wait = env.now - req.at
            yield from booting
            engine.slo.on_boot(queue_wait, vm.boot_time)
            if engine.locality is not None:
                engine.locality.note_hosted(rt.node, req.tenant)

            rt.state = "running"
            seq = 0
            while True:
                rt._wake = env.event()
                while rt.snap_pending > 0:
                    rt.snap_pending -= 1
                    yield from _take_snapshot(engine, rt, vm, seq)
                    seq += 1
                if rt.teardown_flag:
                    break
                yield rt._wake

            yield from _teardown(engine, rt, vm)
    finally:
        rt.state = "done"
        engine.release(rt)


def _take_snapshot(engine: "ChurnEngine", rt: VmRuntime, vm: VMInstance, seq: int):
    """Write the local diff, CLONE + COMMIT, prune retained snapshots."""
    spec = engine.spec
    snap = yield from instance.snapshot(
        vm, engine.image, spec.diff_bytes, ("churn-diff", rt.req.req_id, seq)
    )
    engine.slo.on_snapshot(snap.duration)
    rt.published.append(snap.at)
    # retention: unpublish mid-life snapshots beyond the newest K
    dep = engine.cloud.blobseer
    while len(rt.published) > spec.retention_per_vm:
        blob_id, version = rt.published.pop(0)
        yield from rpc.call(
            vm.host, dep.vmanager_host, "blob-vmgr", "delete_version",
            blob_id, version,
        )


def _teardown(engine: "ChurnEngine", rt: VmRuntime, vm: VMInstance):
    """Shutdown and local-file cleanup; unpublish the clone's lineage."""
    handle = vm.backend.handle
    clone = None
    if handle.target_blob != handle.source_blob and not engine.spec.retain_snapshots:
        clone = handle.target_blob
    # the unpublished clone blob (and every chunk only it references)
    # becomes garbage for the next GC sweep
    yield from instance.teardown(vm, clone)
    if clone is not None:
        rt.retired.extend(rt.published)
        rt.published.clear()
        engine.slo.on_retire()
    engine.slo.on_complete()
