"""Cluster construction: the simulated Grid'5000 Nancy site.

:func:`build_cloud` assembles the full experimental infrastructure of §5.1:
compute nodes (GigE NIC, local disk, KVM), a manager node running the
BlobSeer version/provider managers, an NFS server (the prepropagation
source), BlobSeer and — unless ``with_pvfs=False`` — PVFS deployed across
the compute nodes' local disks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from ..baselines.nfs import NfsServer
from ..baselines.pvfs import PvfsDeployment
from ..blobseer.service import BlobSeerDeployment
from ..calibration import Calibration, DEFAULT
from ..simkit.host import Fabric, Host
from ..topo import Topology, build_topology

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector
    from ..faults.plan import FaultPlan
    from ..faults.policy import RetryPolicy
    from ..p2p.exchange import PeerNetwork


@dataclass
class Cloud:
    """A built cluster with its storage services."""

    fabric: Fabric
    compute: List[Host]
    manager: Host
    nfs_host: Host
    nfs: NfsServer
    blobseer: BlobSeerDeployment
    pvfs: Optional[PvfsDeployment]
    calib: Calibration = field(default_factory=lambda: DEFAULT)
    injector: Optional["FaultInjector"] = None
    #: cooperative chunk-exchange overlay; None unless built with p2p=True
    p2p: Optional["PeerNetwork"] = None
    #: hierarchical fabric description; None on the flat (default) testbed
    topology: Optional[Topology] = None

    @property
    def env(self):
        return self.fabric.env

    @property
    def metrics(self):
        return self.fabric.metrics

    def run(self, until=None):
        return self.fabric.run(until)

    def inject_faults(self, plan: "FaultPlan") -> "FaultInjector":
        """Arm ``plan`` against this cloud (event times relative to now)."""
        from ..faults.injector import FaultInjector

        self.injector = FaultInjector(self, plan).arm()
        return self.injector


def build_cloud(
    compute_nodes: int,
    seed: int = 0,
    calib: Calibration = DEFAULT,
    with_pvfs: bool = True,
    data_nodes: Optional[int] = None,
    meta_nodes: Optional[int] = None,
    placement: Optional[str] = None,
    dedup: bool = False,
    replication_factor: int = 1,
    retry: Optional["RetryPolicy"] = None,
    p2p: bool = False,
    p2p_cache_bytes: Optional[int] = None,
    p2p_directory: Optional[str] = None,
    p2p_locate_fanout: Optional[int] = None,
    racks: int = 1,
    oversubscription: float = 4.0,
    topo_aware: bool = True,
) -> Cloud:
    """Build the simulated testbed.

    Both storage services aggregate the *compute nodes'* local disks, as in
    the paper (§3.1.1: the repository is co-located with the compute nodes,
    not on dedicated storage hardware). ``data_nodes`` / ``meta_nodes``
    optionally concentrate the BlobSeer providers on the first K compute
    nodes instead — a dedicated-repository topology (cf. López García &
    Fernández del Castillo) used by the scale benchmark to reproduce the
    paper's fan-in contention regime at large n.

    Metadata tree nodes get ``min(replication_factor, meta nodes)`` homes.
    ``placement=None`` places replicas ``rack-diverse`` on a locality-aware
    multi-rack fabric with ``replication_factor > 1``, else ``round-robin``.
    ``p2p=True`` adds the cooperative chunk exchange; a ``p2p_*`` keyword
    left at None keeps the :class:`~repro.p2p.exchange.P2PConfig` default.

    ``racks > 1`` builds the hierarchical fabric: compute nodes are
    block-assigned to racks, the rack uplink defaults to
    ``hosts_per_rack * nic_bandwidth / oversubscription``, and
    infrastructure hosts (manager, NFS server) land in rack 0.
    ``topo_aware=True`` additionally turns on the locality consumers
    (rack-ranked p2p peer selection and same-rack replica reads);
    ``topo_aware=False`` keeps the policies topology-blind so experiments
    can isolate the fabric cost from the locality win. The default flat
    build (``racks=1``) has no topology and is bit-identical to the seed model.
    """
    for label, k in (("data_nodes", data_nodes), ("meta_nodes", meta_nodes)):
        if k is not None and not 1 <= k <= compute_nodes:
            raise ValueError(
                f"{label} must be in [1, {compute_nodes}], got {k}"
            )
    if racks < 1:
        raise ValueError(f"racks must be >= 1, got {racks}")
    tb = calib.testbed
    topology = None
    if racks > 1:
        topology = build_topology(
            [f"node{i:03d}" for i in range(compute_nodes)],
            racks,
            tb.nic_bandwidth,
            oversubscription=oversubscription,
            infra_hosts=("manager", "nfs-server"),
        )
    fabric = Fabric(
        seed=seed,
        nic_bandwidth=tb.nic_bandwidth,
        latency=tb.network_latency,
        topology=topology,
    )
    compute = [
        fabric.add_host(
            f"node{i:03d}",
            disk_read_bw=tb.disk_read_bandwidth,
            disk_write_bw=tb.disk_write_bandwidth,
            disk_seek_time=tb.disk_seek_time,
        )
        for i in range(compute_nodes)
    ]
    manager = fabric.add_host("manager")
    nfs_host = fabric.add_host("nfs-server")
    nfs = NfsServer(nfs_host)

    fabric.connection_setup = calib.service.connection_setup

    #: locality consumers only engage on a multi-rack fabric with
    #: topo_aware set; otherwise every policy runs its seed code path
    locality_topo = (
        topology if (topo_aware and topology is not None and topology.multi_rack)
        else None
    )
    blobseer = BlobSeerDeployment(
        fabric,
        data_hosts=compute[:data_nodes] if data_nodes else compute,
        meta_hosts=compute[:meta_nodes] if meta_nodes else compute,
        vmanager_host=manager,
        model=calib.service,
        placement=placement or (
            "rack-diverse" if topo_aware and racks > 1 and replication_factor > 1
            else "round-robin"
        ),
        write_buffer_bytes=calib.service.provider_write_buffer,
        dedup=dedup,
        replication_factor=replication_factor,
        retry=retry,
        topology=topology,
        rack_aware_reads=locality_topo is not None,
    )
    peer_network = None
    if p2p:
        from ..p2p.exchange import P2PConfig, PeerNetwork

        config_kw = dict(
            cache_bytes=p2p_cache_bytes, directory=p2p_directory,
            locate_fanout=p2p_locate_fanout,
        )
        peer_network = PeerNetwork(
            fabric,
            compute,
            calib.service,
            config=P2PConfig(**{k: v for k, v in config_kw.items() if v is not None}),
            directory_host=manager,
            topology=locality_topo,
        )
        blobseer.peer_network = peer_network

    pvfs = None
    if with_pvfs:
        pvfs = PvfsDeployment(
            fabric,
            io_hosts=compute,
            stripe_size=calib.image.chunk_size,
            model=calib.service,
        )
    return Cloud(
        fabric=fabric,
        compute=compute,
        manager=manager,
        nfs_host=nfs_host,
        nfs=nfs,
        blobseer=blobseer,
        pvfs=pvfs,
        calib=calib,
        p2p=peer_network,
        topology=topology,
    )
