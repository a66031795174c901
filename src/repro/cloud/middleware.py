"""The cloud middleware / control API (§3.2, Fig. 1).

A thin orchestration facade over the deployment and snapshotting runners:
what a Nimbus-style central service would expose to clients. It covers the
management tasks the paper lists — deploying an image on a set of compute
nodes, snapshotting any subset of the instances (one, for the debugging
use-case), terminating, and resuming snapshots on (possibly different) nodes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..common.errors import MiddlewareError
from ..vmsim.backends import MirrorBackend, SnapshotResult
from ..vmsim.hypervisor import VMInstance
from ..vmsim.image import VmImage
from .cluster import Cloud
from .deployment import DeploymentResult, deploy, seed_image
from .snapshotting import SnapshotCampaignResult, snapshot_all


class CloudMiddleware:
    """Client-facing control API of the simulated cloud."""

    def __init__(self, cloud: Cloud):
        self.cloud = cloud
        self._idents: Optional[dict] = None

    # ------------------------------------------------------------------ #
    # image management
    # ------------------------------------------------------------------ #
    def upload_image(self, image: VmImage) -> dict:
        """Store the initial image in the repository (client upload)."""
        self._idents = seed_image(self.cloud, image)
        return self._idents

    # ------------------------------------------------------------------ #
    # deployment management
    # ------------------------------------------------------------------ #
    def deploy_set(
        self, image: VmImage, n_instances: int, approach: str = "mirror", **kwargs
    ) -> DeploymentResult:
        """Deploy ``n_instances`` VMs from the image (multideployment)."""
        if self._idents is None:
            self.upload_image(image)
        return deploy(self.cloud, image, n_instances, approach, idents=self._idents, **kwargs)

    def terminate_set(self, vms: Sequence[VMInstance]) -> None:
        """Shut every instance down (closes backends, persists mirror state)."""
        env = self.cloud.env
        procs = [env.process(vm.shutdown(), name=f"stop-{vm.name}") for vm in vms]
        self.cloud.run(env.all_of(procs))

    # ------------------------------------------------------------------ #
    # snapshot management
    # ------------------------------------------------------------------ #
    def snapshot_set(self, vms: Sequence[VMInstance], approach: str = "mirror") -> SnapshotCampaignResult:
        """Snapshot ``vms``: CLONE+COMMIT (or qcow2 copy-back) on each, in parallel."""
        return snapshot_all(self.cloud, vms, approach)

    # ------------------------------------------------------------------ #
    # resume (redeploy snapshots, possibly on fresh nodes)
    # ------------------------------------------------------------------ #
    def resume_set(
        self,
        snapshots: Sequence[SnapshotResult],
        nodes: Sequence,
        name_prefix: str = "resumed",
    ) -> List[VMInstance]:
        """Mount each mirror snapshot on a node and return fresh instances.

        Only snapshots produced by the mirror approach are resumable this
        way (``blob<id>@v<version>`` identifiers); qcow2 resumes go through
        a new ``Qcow2PvfsBackend`` with the snapshot as a local file, which
        the Fig. 8 benchmark constructs explicitly.
        """
        if len(snapshots) > len(nodes):
            raise MiddlewareError("not enough nodes to resume onto")
        vms: List[VMInstance] = []
        for i, (snap, node) in enumerate(zip(snapshots, nodes)):
            ident = snap.ident
            if not ident.startswith("blob"):
                raise MiddlewareError(f"cannot resume non-mirror snapshot {ident!r}")
            blob_part, version_part = ident[4:].split("@v")
            backend = MirrorBackend(
                node,
                self.cloud.blobseer,
                int(blob_part),
                int(version_part),
                self.cloud.calib.fuse,
                path=f"/mirror/{name_prefix}-{i:03d}",
            )
            vm = VMInstance(
                f"{name_prefix}-{i:03d}",
                node,
                backend,
                self.cloud.calib.boot,
                self.cloud.fabric.rng.get("vm-resume", i),
            )
            vms.append(vm)
        return vms
