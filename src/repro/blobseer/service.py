"""Deploying a BlobSeer instance onto a simulated cluster.

A :class:`BlobSeerDeployment` wires the pieces together:

* a :class:`~repro.blobseer.provider.DataProviderService` on every compute
  node, aggregating part of its local disk into the shared pool (§3.1.1);
* :class:`~repro.blobseer.provider.MetadataProviderService` shards holding
  the distributed segment-tree nodes (assigned by node-id modulo);
* one :class:`~repro.blobseer.provider.VersionManagerService` and one
  :class:`~repro.blobseer.pmanager.ProviderManagerService` on manager nodes.

``seed_blob`` injects an already-uploaded image at time zero (the paper's
experiments start from an image previously stored in the repository; the
upload itself is not part of any measured figure).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..calibration import ServiceModel
from ..common.errors import StorageError
from ..common.payload import Payload
from ..simkit import rpc
from ..simkit.host import Fabric, Host
from .client import BlobClient
from .metadata import ChunkRef, MetadataStore, build_tree
from .pmanager import PlacementPolicy, ProviderManagerService
from .provider import DataProviderService, MetadataProviderService, VersionManagerService
from .store import KeyMinter
from .vmanager import BlobRegistry, SnapshotRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.policy import RetryPolicy


class BlobSeerDeployment:
    """A running BlobSeer instance on a set of hosts."""

    def __init__(
        self,
        fabric: Fabric,
        data_hosts: Sequence[Host],
        meta_hosts: Sequence[Host],
        vmanager_host: Host,
        model: Optional[ServiceModel] = None,
        placement: str = "round-robin",
        write_buffer_bytes: int = 64 * 2**20,
        dedup: bool = False,
        replication_factor: int = 1,
        retry: Optional["RetryPolicy"] = None,
        topology=None,
        rack_aware_reads: bool = False,
    ):
        if not data_hosts or not meta_hosts:
            raise StorageError("need at least one data and one metadata host")
        if replication_factor < 1 or replication_factor > len(data_hosts):
            raise StorageError(
                f"replication factor {replication_factor} impossible with "
                f"{len(data_hosts)} data hosts"
            )
        #: replicas per chunk written through this deployment's clients
        self.replication_factor = replication_factor
        #: homes per metadata tree node (consecutive shards mod n_meta): one
        #: per chunk replica, as far as the metadata hosts go
        self.meta_replication = min(replication_factor, len(meta_hosts))
        #: client-side RetryPolicy: the deadline, rounds and backoff of the
        #: client's one failover loop; ``None`` = no deadline, no backoff,
        #: each replica tried once
        self.retry = retry
        #: cooperative chunk-exchange overlay (:class:`repro.p2p.PeerNetwork`);
        #: ``None`` (the default) leaves clients on the provider-only path
        self.peer_network = None
        #: hierarchical fabric description (None = flat); enables the
        #: rack-diverse placement strategy below
        self.topology = topology
        #: when set, clients prefer a same-rack replica on reads; ``None``
        #: keeps replica selection byte-identical to the seed (providers[0])
        self.read_topology = (
            topology
            if (rack_aware_reads and topology is not None and topology.multi_rack)
            else None
        )
        self.fabric = fabric
        self.model = model if model is not None else ServiceModel()
        self.metadata = MetadataStore()
        self.registry = BlobRegistry(self.metadata)
        self.minter = KeyMinter()
        #: content-addressed chunk index (None = dedup disabled). Keys are
        #: payloads (content-equality stands in for a collision-free digest).
        self.dedup_index: Optional[Dict[Payload, ChunkRef]] = {} if dedup else None
        #: in-flight commit pins (id -> refcount): chunk keys already PUT and
        #: metadata nodes already scattered by a COMMIT whose publish has not
        #: landed yet. They are unreachable from every published root, so a
        #: :func:`~repro.blobseer.gc.collect_garbage` sweep racing the commit
        #: would otherwise reclaim them and the snapshot published moments
        #: later would reference vanished chunks. Refcounts allow overlapping
        #: commits to pin the same deduplicated chunk independently.
        self.inflight_keys: Dict[int, int] = {}
        self.inflight_nodes: Dict[int, int] = {}
        self.vmanager_host = vmanager_host

        self.data_services: Dict[str, DataProviderService] = {}
        for host in data_hosts:
            svc = DataProviderService(host, self.model, write_buffer_bytes=write_buffer_bytes)
            rpc.bind(host, "blob-data", svc)
            self.data_services[host.name] = svc

        self.meta_hosts: List[Host] = list(meta_hosts)
        n_meta = len(self.meta_hosts)
        #: :meth:`shard_hosts` of the nodes whose primary is shard ``p``, at ``p``
        self._homes = [
            tuple(self.meta_hosts[(p + r) % n_meta] for r in range(self.meta_replication))
            for p in range(n_meta)
        ]
        self.meta_services: Dict[str, MetadataProviderService] = {}
        for host in self.meta_hosts:
            svc = MetadataProviderService(host, self.model)
            rpc.bind(host, "blob-meta", svc)
            self.meta_services[host.name] = svc

        self.vmanager = VersionManagerService(vmanager_host, self.registry, self.model)
        rpc.bind(vmanager_host, "blob-vmgr", self.vmanager)

        self.policy = PlacementPolicy(
            [h.name for h in data_hosts],
            strategy=placement,
            replication_factor=replication_factor,
            rack_of=topology.rack_of if topology is not None else None,
        )
        self.pmanager = ProviderManagerService(vmanager_host, self.policy, self.model)
        rpc.bind(vmanager_host, "blob-pmgr", self.pmanager)

    # ------------------------------------------------------------------ #
    def pin_inflight(self, keys: Sequence[int] = (), nodes: Sequence[int] = ()):
        """Shield not-yet-published chunk keys / metadata nodes from the GC."""
        for key in keys:
            self.inflight_keys[key] = self.inflight_keys.get(key, 0) + 1
        for nid in nodes:
            self.inflight_nodes[nid] = self.inflight_nodes.get(nid, 0) + 1

    def unpin_inflight(self, keys: Sequence[int] = (), nodes: Sequence[int] = ()):
        """Release commit pins once the snapshot is published (or aborted)."""
        for key in keys:
            left = self.inflight_keys.get(key, 0) - 1
            if left > 0:
                self.inflight_keys[key] = left
            else:
                self.inflight_keys.pop(key, None)
        for nid in nodes:
            left = self.inflight_nodes.get(nid, 0) - 1
            if left > 0:
                self.inflight_nodes[nid] = left
            else:
                self.inflight_nodes.pop(nid, None)

    # ------------------------------------------------------------------ #
    def shard_hosts(self, node_id: int) -> Tuple[Host, ...]:
        """All homes of a tree node: ``meta_replication`` consecutive shards.

        The first entry is the primary (id-modulo placement); clients read
        from it and fail over to the followers in order.
        """
        homes = self._homes
        return homes[node_id % len(homes)]

    def client(self, host: Host) -> BlobClient:
        client = BlobClient(host, self)
        if self.peer_network is not None:
            client.peer_agent = self.peer_network.agent_for(host)
        return client

    # ------------------------------------------------------------------ #
    def seed_blob(
        self, payload: Payload, chunk_size: int, replication: Optional[int] = None
    ) -> SnapshotRecord:
        """Inject a fully-uploaded blob at time zero (experiment setup).

        Content lands in the providers' on-disk chunk stores, the metadata
        tree is built and scattered to its shards, and the first snapshot is
        published — exactly the state an out-of-band upload would
        leave behind, with no simulated time elapsed.
        """
        size = payload.size
        if replication is None:
            replication = self.replication_factor
        blob_id = self.registry.create_blob(size, chunk_size)
        n_chunks = -(-size // chunk_size)
        placements = self.policy.allocate(n_chunks, chunk_size, replication)
        refs: Dict[int, ChunkRef] = {}
        for idx, providers in enumerate(placements):
            lo = idx * chunk_size
            hi = min(lo + chunk_size, size)
            chunk = payload.slice(lo, hi)
            key = self.minter.mint_one()
            refs[idx] = ChunkRef(key, tuple(providers), chunk.size)
            for name in providers:
                self.data_services[name].store.put(key, chunk)
            if self.dedup_index is not None:
                self.dedup_index.setdefault(chunk, refs[idx])
        before = len(self.metadata)
        root = build_tree(self.metadata, refs, n_chunks)
        for nid in range(before, len(self.metadata)):
            node = self.metadata.get(nid)
            for shard in self.shard_hosts(nid):
                self.meta_services[shard.name].nodes[nid] = node
        return self.registry.publish(blob_id, root)

    # ------------------------------------------------------------------ #
    def stored_bytes(self) -> int:
        """Physical bytes across all providers (storage-consumption metric)."""
        return sum(svc.stored_bytes for svc in self.data_services.values())
