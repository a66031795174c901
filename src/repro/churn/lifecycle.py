"""Per-instance lifecycle processes: boot -> run -> snapshot? -> teardown.

Each placed :class:`~repro.churn.arrivals.DeployRequest` becomes one
:class:`VmRuntime` driven by a single simulation process
(:func:`run_instance`), which takes the one instance lifecycle of
:mod:`repro.cloud.instance`: a mirror of the tenant's image on the placed
node, a boot, then the snapshot (local diff + CLONE + COMMIT) if the
dispatcher delivers one, and a teardown that unlinks the local mirror,
unpublishes the clone blob for the next GC sweep and releases the slot —
which may immediately pop queued deploys.

A deploy schedules at most one snapshot
(:func:`~repro.churn.arrivals.generate_trace`); it is the restore target,
live or (after the teardown) retired.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..cloud import instance
from ..vmsim.hypervisor import VMInstance
from .arrivals import DeployRequest

if TYPE_CHECKING:  # pragma: no cover
    from .engine import ChurnEngine


class VmRuntime:
    """Control-plane state of one placed instance."""

    __slots__ = (
        "req", "node", "state", "snapshot_due", "teardown_flag",
        "proc", "snapshot", "_wake",
    )

    def __init__(self, req: DeployRequest, node: int):
        self.req = req
        self.node = node
        self.state = "placed"  # placed -> booting -> running -> done
        self.snapshot_due = False
        self.teardown_flag = False
        self.proc = None
        #: (blob_id, version) of the snapshot: published while the
        #: instance lives, retired by its teardown — a restore target until
        #: the next GC sweep reclaims its chunks (see RestoreRequest)
        self.snapshot: Optional[Tuple[int, int]] = None
        self._wake = None

    # -- dispatcher side ------------------------------------------------ #
    def deliver_snapshot(self) -> None:
        self.snapshot_due = True
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
            while True:
                rt._wake = env.event()
                if rt.snapshot_due:
                    rt.snapshot_due = False
                    yield from _take_snapshot(engine, rt, vm)
                if rt.teardown_flag:
                    break
                yield rt._wake

            yield from _teardown(engine, rt, vm)
    finally:
        rt.state = "done"
        engine.release(rt)


def _take_snapshot(engine: "ChurnEngine", rt: VmRuntime, vm: VMInstance):
    """Write the local diff, CLONE + COMMIT: the VM's one snapshot."""
    snap = yield from instance.snapshot(
        vm, engine.image, engine.spec.diff_bytes, ("churn-diff", rt.req.req_id, 0)
    )
    engine.slo.on_snapshot(snap.duration)
    rt.snapshot = snap.at


def _teardown(engine: "ChurnEngine", rt: VmRuntime, vm: VMInstance):
    """Shutdown and local-file cleanup; unpublish the clone's lineage."""
    handle = vm.backend.handle
    clone = handle.target_blob if handle.target_blob != handle.source_blob else None
    # the unpublished clone blob (and every chunk only it references)
    # becomes garbage for the next GC sweep
    yield from instance.teardown(vm, clone)
    if clone is not None:
        engine.slo.on_retire()
    engine.slo.on_complete()
