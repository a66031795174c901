"""Per-instance lifecycle processes: boot -> run -> snapshot* -> teardown.

Each placed :class:`~repro.churn.arrivals.DeployRequest` becomes one
:class:`VmRuntime` driven by a single simulation process
(:func:`run_instance`): it opens a mirror backend on the placed node, boots
the tenant's image through the paper's on-demand VFS, then sleeps until the
dispatcher delivers snapshot or teardown requests. Snapshots write the §5.3
local diff and run the CLONE + COMMIT cycle; retention pruning unpublishes
older mid-life snapshots as new ones land. Teardown shuts the hypervisor
down, unlinks the local mirror file (and its persisted modification state)
so compute-node storage stays bounded over tens of thousands of requests,
unpublishes the instance's retired snapshot lineage (making it reclaimable
by the next :func:`~repro.blobseer.gc.collect_garbage` sweep), and releases
the slot back to the scheduler — which may immediately pop queued deploys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..simkit import rpc
from ..vmsim.backends import MirrorBackend
from ..vmsim.boottrace import boot_trace
from ..vmsim.hypervisor import VMInstance
from ..vmsim.workloads import read_your_writes_workload
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
    """The lifecycle process of one placed deploy (a generator)."""
    env = engine.cloud.env
    fabric = engine.cloud.fabric
    calib = engine.cloud.calib
    req = rt.req
    try:
        with fabric.tracer.start(
            f"churn:vm:{req.req_id}", "churn", tenant=req.tenant, node=rt.node,
        ):
            host = engine.cloud.compute[rt.node]
            rec = engine.tenant_images[req.tenant]
            backend = MirrorBackend(
                host, engine.cloud.blobseer, rec.blob_id, rec.version, calib.fuse,
                path=f"/mirror/churn-r{req.req_id}",
            )
            vm = VMInstance(
                f"churn-{req.req_id:05d}", host, backend, calib.boot,
                fabric.rng.get("churn-vm", req.req_id),
            )
            trace = boot_trace(
                engine.image, calib.boot, fabric.rng.get("churn-trace", req.req_id)
            )
            rt.state = "booting"
            queue_wait = env.now - req.at
            yield from vm.boot(trace)
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
    fabric = engine.cloud.fabric
    if spec.diff_bytes > 0:
        ops = read_your_writes_workload(
            engine.image.write_base, spec.diff_bytes,
            fabric.rng.get("churn-diff", rt.req.req_id, seq),
            reread_fraction=0.05,
        )
        yield from vm.run_ops(ops)
    snap = yield from vm.backend.snapshot()
    engine.slo.on_snapshot(snap.duration)
    handle = vm.backend.handle
    rt.published.append((handle.target_blob, handle.target_version))
    # retention: unpublish mid-life snapshots beyond the newest K
    dep = engine.cloud.blobseer
    while len(rt.published) > spec.retention_per_vm:
        blob_id, version = rt.published.pop(0)
        yield from rpc.call(
            vm.host, dep.vmanager_host, "blob-vmgr", "delete_version",
            blob_id, version,
        )


def _teardown(engine: "ChurnEngine", rt: VmRuntime, vm: VMInstance):
    """Shutdown, local-file cleanup, lineage unpublish."""
    dep = engine.cloud.blobseer
    handle = vm.backend.handle
    clone_blob: Optional[int] = None
    if handle is not None and handle.target_blob != handle.source_blob:
        clone_blob = handle.target_blob
    yield from vm.shutdown()
    if handle is not None:
        # drop the local mirror file and its persisted modification state;
        # without this, node-local storage grows with every request served
        handle.local.unlink()
    if clone_blob is not None and not engine.spec.retain_snapshots:
        # unpublish the whole retired lineage: the clone blob (and every
        # chunk only it references) becomes garbage for the next GC sweep
        yield from rpc.call(
            vm.host, dep.vmanager_host, "blob-vmgr", "delete_blob", clone_blob
        )
        rt.retired.extend(rt.published)
        rt.published.clear()
        engine.slo.on_retire()
    engine.slo.on_complete()
