"""Multideployment runners: one initial image -> N concurrent VM instances.

Implements the three deployment schemes compared in §5.2 behind one
interface, collecting the paper's three metrics: average boot time per
instance, time-to-complete for all instances, and total network traffic.

* ``prepropagation`` — broadcast the raw image to every node (taktuk tree),
  then launch all hypervisors on the local copies;
* ``qcow2-pvfs`` — create a local qcow2 file per node backed by the raw
  image striped on PVFS, then launch;
* ``mirror`` — the paper's approach: launch immediately, the mirroring VFS
  fetches on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..baselines.prepropagation import prepropagate
from ..calibration import BootModel
from ..common.errors import MiddlewareError
from ..vmsim.backends import LocalRawBackend, MirrorBackend, Qcow2PvfsBackend
from ..vmsim.boottrace import boot_trace
from ..vmsim.hypervisor import VMInstance
from ..vmsim.image import VmImage
from .cluster import Cloud

APPROACHES = ("prepropagation", "qcow2-pvfs", "mirror")

#: Repository paths/identifiers for the seeded initial image.
NFS_IMAGE_PATH = "/images/initial.raw"
PVFS_IMAGE_PATH = "/images/initial.raw"
LOCAL_IMAGE_PATH = "/local/image.raw"


@dataclass
class DeploymentResult:
    """Outcome of one multideployment run (one data point of Fig. 4)."""

    approach: str
    n_instances: int
    #: initialization phase duration (broadcast / qcow2 creation); 0 for mirror
    init_time: float
    #: per-instance boot times, measured after the init phase (Fig. 4a)
    boot_times: List[float] = field(default_factory=list)
    #: wall time until every instance finished booting, incl. init (Fig. 4b)
    completion_time: float = 0.0
    #: total bytes that crossed the network during the whole run (Fig. 4d)
    total_traffic: int = 0
    #: the running instances (for follow-up workloads/snapshots)
    vms: List[VMInstance] = field(default_factory=list)
    #: peer-exchange effectiveness (None unless the cloud was built with p2p)
    p2p_stats: Optional[dict] = None

    @property
    def avg_boot_time(self) -> float:
        return sum(self.boot_times) / len(self.boot_times) if self.boot_times else 0.0


def seed_image(cloud: Cloud, image: VmImage) -> dict:
    """Install the initial image in every repository flavour (time zero).

    Returns identifiers per approach: the BlobSeer snapshot record, the PVFS
    path and the NFS path.
    """
    idents = {}
    cloud.nfs.put_file(NFS_IMAGE_PATH, image.payload)
    idents["nfs"] = NFS_IMAGE_PATH
    if cloud.pvfs is not None:
        cloud.pvfs.seed_file(PVFS_IMAGE_PATH, image.payload)
        idents["pvfs"] = PVFS_IMAGE_PATH
    if cloud.blobseer is not None:
        rec = cloud.blobseer.seed_blob(image.payload, cloud.calib.image.chunk_size)
        idents["blobseer"] = rec
    return idents


def _make_backend(
    cloud: Cloud, approach: str, host, idents, instance_name: str,
    mirror_prefetch: bool = True,
):
    if approach == "prepropagation":
        return LocalRawBackend(host, LOCAL_IMAGE_PATH, cloud.calib.fuse)
    if approach == "qcow2-pvfs":
        if cloud.pvfs is None:
            raise MiddlewareError("cloud built without PVFS")
        return Qcow2PvfsBackend(host, cloud.pvfs, idents["pvfs"], cloud.calib.fuse)
    if approach == "mirror":
        if cloud.blobseer is None:
            raise MiddlewareError("cloud built without BlobSeer")
        rec = idents["blobseer"]
        return MirrorBackend(
            host, cloud.blobseer, rec.blob_id, rec.version, cloud.calib.fuse,
            path=f"/mirror/{instance_name}", full_chunk_prefetch=mirror_prefetch,
        )
    raise MiddlewareError(f"unknown approach {approach!r}; pick one of {APPROACHES}")


def deploy(
    cloud: Cloud,
    image: VmImage,
    n_instances: int,
    approach: str,
    idents: Optional[dict] = None,
    boot_model: Optional[BootModel] = None,
    run_boot: bool = True,
    mirror_prefetch: bool = True,
) -> DeploymentResult:
    """Run one multideployment and return its metrics.

    One VM per compute node (as in the paper). ``idents`` may carry the
    result of a previous :func:`seed_image`; otherwise the image is seeded
    now. The call drives the simulation to completion of all boots.
    """
    if n_instances > len(cloud.compute):
        raise MiddlewareError(
            f"{n_instances} instances > {len(cloud.compute)} compute nodes"
        )
    if idents is None:
        idents = seed_image(cloud, image)
    boot_model = boot_model if boot_model is not None else cloud.calib.boot
    fabric = cloud.fabric
    nodes = cloud.compute[:n_instances]
    traffic_before = cloud.metrics.total_traffic()
    t_start = cloud.env.now
    result = DeploymentResult(approach=approach, n_instances=n_instances, init_time=0.0)

    tracer = fabric.tracer

    def create_one(node):
        yield cloud.env.timeout(cloud.calib.service.qcow2_create_overhead)

    def master():
        with tracer.start(f"deploy:{approach}", "deploy", n_instances=n_instances):
            # ---- initialization phase ----------------------------------- #
            if approach == "prepropagation":
                with tracer.start("init-phase", "init", approach=approach):
                    yield from prepropagate(
                        fabric, cloud.nfs, idents["nfs"], nodes, LOCAL_IMAGE_PATH,
                        fanout=cloud.calib.service.broadcast_fanout,
                    )
            elif approach == "qcow2-pvfs":
                with tracer.start("init-phase", "init", approach=approach):
                    procs = cloud.env.process_batch(create_one(n) for n in nodes)
                    yield cloud.env.all_of(procs)
            result.init_time = cloud.env.now - t_start

            # ---- boot phase --------------------------------------------- #
            boots = []
            for i, node in enumerate(nodes):
                name = f"vm{i:03d}"
                backend = _make_backend(
                    cloud, approach, node, idents, name, mirror_prefetch=mirror_prefetch
                )
                rng = fabric.rng.get("vm", approach, i)
                vm = VMInstance(name, node, backend, boot_model, rng)
                result.vms.append(vm)
                trace = boot_trace(image, boot_model, fabric.rng.get("trace", approach, i))
                if run_boot:
                    boots.append(cloud.env.process(vm.boot(trace), name=f"boot-{name}"))
            if boots:
                yield cloud.env.all_of(boots)

    cloud.run(cloud.env.process(master(), name=f"deploy-{approach}"))
    result.completion_time = cloud.env.now - t_start
    result.boot_times = [vm.boot_time for vm in result.vms if vm.boot_time is not None]
    result.total_traffic = cloud.metrics.total_traffic() - traffic_before
    if cloud.p2p is not None:
        result.p2p_stats = cloud.p2p.stats()
    return result
