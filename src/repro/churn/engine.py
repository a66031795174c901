"""The churn engine: a long-horizon control plane over a live cloud.

:class:`ChurnEngine` binds the pieces together: it materializes the request
trace (:mod:`~repro.churn.arrivals`), seeds one base-image blob per tenant,
then runs a dispatcher process that delivers each request at its arrival
time — deploys through the admission/placement layer
(:mod:`~repro.churn.scheduler`), snapshots and teardowns to the target
instance's lifecycle process (:mod:`~repro.churn.lifecycle`). A periodic
:func:`~repro.blobseer.gc.collect_garbage` sweep (cadence
:attr:`~repro.churn.arrivals.ChurnSpec.gc_interval`) keeps the repository
footprint bounded; with the cadence off the same run shows monotone growth,
which is exactly the ablation ``benchmarks/bench_churn.py`` tracks
(``churn_gc``). All steady-state
metrics land in a :class:`~repro.churn.slo.SloTracker`.

The engine is strictly additive: it only *uses* the existing deployment,
snapshotting, GC and p2p machinery, so runs that never construct a
``ChurnEngine`` are bit-identical to a tree without this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from ..blobseer.gc import collect_garbage
from ..blobseer.metadata import reachable_nodes
from ..common.errors import LineageError, SimulationError
from ..simkit import rpc
from .arrivals import (
    ChurnSpec, DeployRequest, RestoreRequest, SnapshotRequest, TeardownRequest,
    generate_trace, trace_crc,
)
from .lifecycle import VmRuntime, run_instance
from .scheduler import LocalityMap, Scheduler
from .slo import SloTracker


@dataclass
class ChurnResult:
    """Outcome of one churn run."""

    spec: ChurnSpec
    #: SloTracker.summary() — percentiles, rates, GC accounting
    summary: dict
    #: per-deploy placement, in deploy order: node index, -1 rejected,
    #: -2 canceled while still queued
    placements: Tuple[int, ...]
    #: (time, provider bytes) samples of the repository footprint
    footprint: Tuple[Tuple[float, int], ...]
    #: fingerprint of the generated request trace (determinism checks)
    trace_crc: int
    n_requests: int


class ChurnEngine:
    """Drives one churn run over an already-built :class:`~repro.cloud.Cloud`."""

    def __init__(self, cloud, image, spec: ChurnSpec):
        if cloud.blobseer is None:
            raise SimulationError("churn needs a cloud built with BlobSeer")
        spec.validate()
        self.cloud = cloud
        self.image = image
        self.spec = spec
        self.slo = SloTracker(len(cloud.compute) * spec.slots_per_node)
        self.trace = generate_trace(spec, cloud.fabric.rng.get("churn-arrivals"))
        self.runtimes: Dict[int, VmRuntime] = {}
        self.placements: Dict[int, int] = {}
        self._restore_procs: list = []

        # one base-image blob per tenant (distinct chunk keys even for the
        # same bytes, so per-tenant locality is a real signal)
        dep = cloud.blobseer
        self.tenant_images = {
            t: dep.seed_blob(image.payload, cloud.calib.image.chunk_size)
            for t in range(spec.n_tenants)
        }

        self.locality: Optional[LocalityMap] = None
        if spec.policy in ("locality", "rack-affinity"):
            caches = None
            if cloud.p2p is not None:
                caches = cloud.p2p.caches
            rack_of = None
            topo = getattr(cloud, "topology", None)
            if topo is not None and topo.multi_rack:
                rack_of = topo.rack_of
            self.locality = LocalityMap(
                [h.name for h in cloud.compute],
                caches=caches,
                tenant_keys=self._tenant_chunk_keys(),
                rack_of=rack_of,
            )
        self.scheduler = Scheduler(
            len(cloud.compute),
            policy=spec.policy,
            slots_per_node=spec.slots_per_node,
            max_queue=spec.max_queue,
            locality=self.locality,
        )

    # ------------------------------------------------------------------ #
    def _tenant_chunk_keys(self) -> Dict[int, FrozenSet[int]]:
        """Chunk keys of each tenant's base image (locality scoring)."""
        dep = self.cloud.blobseer
        out: Dict[int, FrozenSet[int]] = {}
        for tenant, rec in self.tenant_images.items():
            keys = set()
            for nid in reachable_nodes(dep.metadata, rec.root):
                node = dep.metadata.get(nid)
                if node.ref is not None:
                    keys.add(node.ref.key)
            out[tenant] = frozenset(keys)
        return out

    # ------------------------------------------------------------------ #
    def run(self) -> ChurnResult:
        env = self.cloud.env
        master = env.process(self._master(), name="churn-master")
        self.cloud.run(master)
        n_deploys = sum(1 for r in self.trace if isinstance(r, DeployRequest))
        order = sorted(
            r.req_id for r in self.trace if isinstance(r, DeployRequest)
        )
        placements = tuple(self.placements.get(rid, -1) for rid in order)
        if len(placements) != n_deploys:
            raise SimulationError("churn: placement accounting out of sync")
        return ChurnResult(
            spec=self.spec,
            summary=self.slo.summary(env.now),
            placements=placements,
            footprint=tuple(self.slo.footprint),
            trace_crc=trace_crc(self.trace),
            n_requests=len(self.trace),
        )

    # ------------------------------------------------------------------ #
    def _master(self):
        env = self.cloud.env
        spec = self.spec
        with self.cloud.fabric.tracer.start(
            "churn:run", "churn", requests=len(self.trace), policy=spec.policy,
        ):
            self.slo.on_slots(env.now, 0)
            self._sample_footprint()
            if spec.gc_interval > 0:
                env.process(self._gc_loop(), name="churn-gc")
            elif spec.sample_interval > 0:
                env.process(self._sample_loop(), name="churn-sample")

            for req in self.trace:
                if req.at > env.now:
                    yield env.timeout(req.at - env.now)
                self._deliver(req)

            # drain: wait for every live instance (releases spawn queued
            # deploys, so re-collect until nothing is alive) and every
            # in-flight restore
            while True:
                alive = [
                    rt.proc for rt in self.runtimes.values()
                    if rt.proc is not None and rt.proc.is_alive
                ]
                alive += [p for p in self._restore_procs if p.is_alive]
                if not alive:
                    break
                yield env.all_of(alive)
            if self.scheduler.queue:
                raise SimulationError(
                    f"churn drain left {len(self.scheduler.queue)} queued "
                    "deploys without capacity ever freeing"
                )
            if spec.gc_interval > 0:
                self.slo.on_gc(collect_garbage(self.cloud.blobseer))
            self._sample_footprint()

    # ------------------------------------------------------------------ #
    def _deliver(self, req) -> None:
        if isinstance(req, DeployRequest):
            self.slo.on_deploy()
            status, node = self.scheduler.submit(req)
            if status == "placed":
                self._spawn(req, node)
            elif status == "rejected":
                self.slo.on_reject()
                self.placements[req.req_id] = -1
            # "queued": placement recorded when a release pops it
        elif isinstance(req, SnapshotRequest):
            rt = self.runtimes.get(req.target)
            if rt is not None and rt.state in ("placed", "booting", "running"):
                rt.deliver_snapshot()
            else:
                self.slo.on_snapshot_missed()
        elif isinstance(req, TeardownRequest):
            rt = self.runtimes.get(req.target)
            if rt is not None:
                if rt.state != "done":
                    rt.deliver_teardown()
            elif self.scheduler.cancel(req.target):
                self.slo.on_cancel()
                self.placements[req.target] = -2
            # else: the deploy was rejected at admission; nothing to do
        elif isinstance(req, RestoreRequest):
            rt = self.runtimes.get(req.target)
            target = None
            if rt is not None:
                if rt.published:
                    target = rt.published[-1]
                elif rt.retired:
                    # restorable until the next GC sweep reclaims the chunks
                    target = rt.retired[-1]
            if target is None:
                self.slo.on_restore_missed()
            else:
                self._restore_procs.append(self.cloud.env.process(
                    self._restore(req, target[0], target[1]),
                    name=f"churn-restore-{req.req_id}",
                ))
        else:  # pragma: no cover
            raise SimulationError(f"unknown churn request {req!r}")

    def _spawn(self, req: DeployRequest, node: int) -> None:
        env = self.cloud.env
        rt = VmRuntime(req, node)
        self.runtimes[req.req_id] = rt
        self.placements[req.req_id] = node
        rt.proc = env.process(
            run_instance(self, rt), name=f"churn-vm-{req.req_id}"
        )
        self.slo.on_slots(env.now, self.scheduler.busy_slots)

    def release(self, rt: VmRuntime) -> None:
        """Called by a finishing lifecycle process: free the slot, drain."""
        for req, node in self.scheduler.release(rt.node):
            self._spawn(req, node)
        self.slo.on_slots(self.cloud.env.now, self.scheduler.busy_slots)

    # ------------------------------------------------------------------ #
    def _restore(self, req: RestoreRequest, blob_id: int, version: int):
        """Restore-to-version lifecycle: restore, boot, verify, tear down.

        Runs on the node the original deploy was placed on (its peer cache
        is the likeliest to still hold the chunks). A target whose chunks a
        GC sweep already reclaimed raises
        :class:`~repro.common.errors.LineageError` — counted as a missed
        restore, exactly the staleness SLO the retention policy trades
        against.
        """
        from ..lineage.restore import restore_to_version
        from ..vmsim.boottrace import boot_trace

        cloud = self.cloud
        node_idx = self.placements.get(req.target, -1)
        if node_idx < 0:
            node_idx = req.req_id % len(cloud.compute)
        host = cloud.compute[node_idx]
        try:
            res = yield from restore_to_version(
                cloud.blobseer, host, blob_id, version,
                image=self.image, boot_model=cloud.calib.boot,
                vm_rng=cloud.fabric.rng.get("churn-restore-vm", req.req_id),
                trace=boot_trace(
                    self.image, cloud.calib.boot,
                    cloud.fabric.rng.get("churn-restore-trace", req.req_id),
                ),
                fuse=cloud.calib.fuse,
                path=f"/mirror/churn-restore-{req.req_id}",
            )
        except LineageError:
            self.slo.on_restore_missed()
            return
        self.slo.on_restore(
            res.restore_time, res.scan_hops, res.retired_source
        )
        # the restored instance is ephemeral: shut down, drop the local
        # mirror file, unpublish the restored branch
        yield from res.vm.shutdown()
        res.backend.handle.local.unlink()
        yield from rpc.call(
            host, cloud.blobseer.vmanager_host, "blob-vmgr", "delete_blob",
            res.blob_id,
        )

    # ------------------------------------------------------------------ #
    def _sample_footprint(self) -> None:
        self.slo.on_footprint(
            self.cloud.env.now, self.cloud.blobseer.stored_bytes()
        )

    def _gc_loop(self):
        env = self.cloud.env
        while True:
            yield env.timeout(self.spec.gc_interval)
            self.slo.on_gc(collect_garbage(self.cloud.blobseer))
            self._sample_footprint()

    def _sample_loop(self):
        env = self.cloud.env
        while True:
            yield env.timeout(self.spec.sample_interval)
            self._sample_footprint()
