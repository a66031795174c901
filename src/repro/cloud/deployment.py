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

from ..vmsim.hypervisor import VMInstance
from ..vmsim.image import VmImage
from . import instance
from .cluster import Cloud
from .instance import IMAGE_PATH


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

    @property
    def avg_boot_time(self) -> float:
        return sum(self.boot_times) / len(self.boot_times) if self.boot_times else 0.0


def seed_image(cloud: Cloud, image: VmImage) -> dict:
    """Install the initial image in every repository flavour (time zero).

    Returns identifiers per approach: the BlobSeer snapshot record, the PVFS
    path and the NFS path.
    """
    idents = {}
    cloud.nfs.put_file(IMAGE_PATH, image.payload)
    idents["nfs"] = IMAGE_PATH
    if cloud.pvfs is not None:
        cloud.pvfs.seed_file(IMAGE_PATH, image.payload)
        idents["pvfs"] = IMAGE_PATH
    idents["blobseer"] = cloud.blobseer.seed_blob(
        image.payload, cloud.calib.image.chunk_size
    )
    return idents


def deploy(
    cloud: Cloud,
    image: VmImage,
    n_instances: int,
    approach: str,
    idents: Optional[dict] = None,
    mirror_prefetch: bool = True,
) -> DeploymentResult:
    """Run one multideployment and return its metrics.

    One VM per compute node (as in the paper). ``idents`` may carry the
    result of a previous :func:`seed_image`; otherwise the image is seeded
    now. The call drives the simulation to completion of all boots.
    """
    if idents is None:
        idents = seed_image(cloud, image)
    env = cloud.env
    traffic_before = cloud.metrics.total_traffic()
    t_start = env.now
    result = DeploymentResult(approach=approach, n_instances=n_instances, init_time=0.0)

    def master():
        with cloud.fabric.tracer.start(f"deploy:{approach}", "deploy", n_instances=n_instances):
            result.vms = yield from instance.open_fleet(
                cloud, approach, n_instances, idents, mirror_prefetch
            )
            result.init_time = env.now - t_start
            boots = instance.spawn_boots(result.vms, image, ("trace", approach))
            if boots:
                yield env.all_of(boots)

    cloud.run(env.process(master(), name=f"deploy-{approach}"))
    result.completion_time = env.now - t_start
    result.boot_times = [vm.boot_time for vm in result.vms if vm.boot_time is not None]
    result.total_traffic = cloud.metrics.total_traffic() - traffic_before
    return result
