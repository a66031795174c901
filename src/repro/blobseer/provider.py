"""BlobSeer's simulated services: data providers, metadata providers, the
version manager.

Each service wraps pure state (chunk stores, metadata shards, the blob
registry) with the simulated costs that shape the paper's results:

* **Data provider** — serves chunk GETs (one random disk read each:
  commodity providers persist chunks on disk, the same assumption the PVFS
  baseline gets) and chunk PUTs with BlobSeer's *asynchronous write
  pipeline*: the ack returns once the data sits in the provider's RAM buffer;
  a background flusher commits it to disk. Buffer exhaustion throttles acks —
  this is exactly the "write pressure that eventually has to be committed to
  disk" degradation of Fig. 5(a).
* **Metadata provider** — one shard of the distributed segment-tree node
  space (nodes are assigned to shards by id hash). Nodes are immutable, so
  clients may cache them; fetch cost is charged per node batch.
* **Version manager** — the serialization point: FIFO publish queue over the
  :class:`~repro.blobseer.vmanager.BlobRegistry`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..calibration import ServiceModel
from ..common.errors import ChunkNotFoundError, ProviderUnavailableError
from ..common.payload import Payload
from ..common.units import MiB
from ..simkit.core import Timeout
from ..simkit.host import Host
from ..simkit.resources import Container, Resource
from ..simkit.rpc import Sized, timed_read
from .metadata import NodeId, TreeNode
from .store import ChunkStore
from .vmanager import BlobRegistry

#: wire size of one serialized tree node (range + child ids + chunk ref)
NODE_WIRE_BYTES = 72


class DataProviderService:
    """One compute node's slice of the aggregated storage pool (§3.1.1)."""

    def __init__(
        self,
        host: Host,
        model: ServiceModel,
        write_buffer_bytes: int = 64 * MiB,
    ):
        self.host = host
        self.model = model
        self.store = ChunkStore()
        self._buffer = Container(host.env, capacity=float(write_buffer_bytes))
        self._buffer.level = float(write_buffer_bytes)  # full budget available
        self._pending_flush = 0
        #: chunk keys acked but not yet committed to disk (lost on a crash)
        self._unflushed: set[int] = set()

    # ------------------------------------------------------------------ #
    def rpc_get_chunks(self, caller: Host, keys: Sequence):
        """Serve chunks (or sub-chunk ranges); streamed back as one flow.

        Each request item is either a chunk key (whole chunk) or a
        ``(key, lo, hi)`` triple for a byte range within the chunk — the
        latter supports the no-prefetch ablation of the paper's first
        mirroring strategy.
        """
        env = self.host.env
        parts: List[Payload] = []
        for item in keys:
            key, lo, hi = item if isinstance(item, tuple) else (item, None, None)
            yield Timeout(env, self.model.chunk_request_overhead)
            payload = self.store.get(key)
            nbytes = payload.size if lo is None else hi - lo
            # random read: the chunk sits somewhere on the provider disk
            yield from self.host.disk.read(nbytes, sequential=False)
            parts.append(payload if lo is None else payload.slice(lo, hi))
        combined = Payload.concat(parts)
        metrics = self.host.fabric.metrics
        metrics.counters["chunk-get"] += len(keys)
        metrics.counters["provider-bytes"] += combined.size
        return combined

    def rpc_put_chunks(self, caller: Host, items: Sequence[Tuple[int, Payload]]):
        """Store chunks; acked once they sit in the RAM write buffer."""
        env = self.host.env
        total = sum(p.size for _, p in items)
        for key, payload in items:
            yield Timeout(env, self.model.chunk_request_overhead)
            if not self.store.has(key):
                # Puts are idempotent: a client retrying after a partial
                # replicated write may resend chunks this provider already
                # holds; re-storing an immutable chunk is a no-op.
                self.store.put(key, payload)
        self.host.fabric.metrics.counters["chunk-put"] += len(items)
        # Reserve RAM buffer (throttles when the flusher lags), ack, commit
        # to disk in the background.
        yield self._buffer.get(float(total))
        self._pending_flush += total
        self._unflushed.update(key for key, _ in items)
        self.host.spawn(self._flush(items), name="provider-flush")
        return None

    def rpc_put_chunks_chain(
        self, caller: Host, items: Sequence[Tuple[int, Payload]], chain: Sequence[str]
    ):
        """Pipelined replication: store locally, then forward down ``chain``.

        The client streams each replica group to the head provider only; the
        head forwards to the next replica, and so on — k-1 provider-to-provider
        transfers replace k-1 client uplink transfers (classic chain
        replication, cheap when the client NIC is the bottleneck). No client
        sends it: every replicated write fans out from the client.
        """
        yield from self.rpc_put_chunks(caller, items)
        if chain:
            from ..simkit import rpc

            next_host = self.host.fabric.hosts[chain[0]]
            total = sum(p.size for _, p in items)
            yield from rpc.call(
                self.host,
                next_host,
                "blob-data",
                "put_chunks_chain",
                items,
                tuple(chain[1:]),
                request_bytes=total + rpc.REQUEST_BYTES,
            )
        return None

    def _flush(self, items: Sequence[Tuple[int, Payload]]):
        # chunks land wherever the provider's store has room: one random
        # write per chunk
        total = 0
        for _key, payload in items:
            yield from self.host.disk.write(payload.size, sequential=False)
            self._unflushed.discard(_key)
            total += payload.size
        self._pending_flush -= total
        yield self._buffer.put(float(total))

    # ------------------------------------------------------------------ #
    def on_host_crash(self):
        """Volatile state dies with the node; disk-committed chunks survive.

        Called by :meth:`~repro.simkit.host.Host.fail`. Acked-but-unflushed
        chunks are lost (the async-ack window is exactly the durability gap
        the replication layer exists to cover), and any client blocked on
        the write buffer gets an immediate failure instead of hanging on a
        dead flusher.
        """
        for key in self._unflushed:
            self.store.discard(key)
        self._unflushed.clear()
        self._buffer.fail_waiters(
            ProviderUnavailableError(f"{self.host.name} crashed")
        )
        # Fresh, full buffer for the post-recovery life of the service.
        self._buffer = Container(self.host.env, capacity=self._buffer.capacity)
        self._buffer.level = self._buffer.capacity
        self._pending_flush = 0

    # ------------------------------------------------------------------ #
    def drain(self):
        """Wait until all buffered writes hit the disk (durability barrier)."""
        env = self.host.env
        while self._pending_flush > 0:
            yield env.timeout(0.01)

    @property
    def stored_bytes(self) -> int:
        return self.store.total_bytes()


class MetadataProviderService:
    """One shard of the distributed metadata (segment-tree nodes)."""

    def __init__(self, host: Host, model: ServiceModel):
        self.host = host
        self.model = model
        self.nodes: Dict[NodeId, TreeNode] = {}

    @timed_read
    def rpc_get_nodes(self, caller: Host, ids: Sequence[NodeId]):
        """Serve a node batch: a pure timed read (see :func:`~repro.simkit.rpc.timed_read`).

        Published nodes are immutable and the service time is fixed by the
        batch size, so the reply is known when the call starts. The reply is
        the ids: a shard holds the deployment's own node objects, which the
        client reads from the append-only
        :class:`~repro.blobseer.metadata.MetadataStore`; the wire size is
        that of the serialized nodes.
        """
        seconds = self.model.metadata_node_overhead * len(ids)
        nodes = self.nodes
        for nid in ids:
            if nid not in nodes:
                return seconds, ChunkNotFoundError(
                    f"metadata shard {self.host.name}: node {nid}"
                )
        self.host.fabric.metrics.counters["meta-get"] += len(ids)
        # Wire-size the batch so big metadata fetches cost transfer time.
        return seconds, Sized(ids, NODE_WIRE_BYTES * len(ids))

    def rpc_put_nodes(self, caller: Host, nodes: Dict[NodeId, TreeNode]):
        env = self.host.env
        yield Timeout(env, self.model.metadata_node_overhead * len(nodes))
        self.nodes.update(nodes)
        self.host.fabric.metrics.counters["meta-put"] += len(nodes)
        return None

    def on_host_crash(self):
        """Metadata shards are DRAM-resident: a crash loses the shard.

        Surviving replicas on the other metadata homes (``meta_replication``
        in :class:`~repro.blobseer.service.BlobSeerDeployment`) are the only
        way reads keep working afterwards.
        """
        self.nodes.clear()


class VersionManagerService:
    """Snapshot ordering and the publish protocol (one instance per deployment)."""

    def __init__(self, host: Host, registry: BlobRegistry, model: ServiceModel):
        self.host = host
        self.registry = registry
        self.model = model
        self._serializer = Resource(host.env, capacity=1)

    def _serialized(self, work_seconds: float):
        req = self._serializer.request()
        yield req
        try:
            yield self.host.env.timeout(work_seconds)
        finally:
            self._serializer.release()

    def rpc_create_blob(self, caller: Host, size: int, chunk_size: int):
        yield from self._serialized(self.model.publish_overhead)
        return self.registry.create_blob(size, chunk_size)

    def rpc_publish(self, caller: Host, blob_id: int, root: Optional[NodeId]):
        yield from self._serialized(self.model.publish_overhead)
        return self.registry.publish(blob_id, root)

    def rpc_clone(self, caller: Host, blob_id: int, version: Optional[int]):
        yield from self._serialized(self.model.publish_overhead)
        return self.registry.clone(blob_id, version)

    def rpc_lookup(self, caller: Host, blob_id: int, version: Optional[int]):
        yield self.host.env.timeout(self.model.publish_overhead / 4)
        return self.registry.lookup(blob_id, version)

    def rpc_delete_version(self, caller: Host, blob_id: int, version: int):
        yield from self._serialized(self.model.publish_overhead)
        self.registry.delete_version(blob_id, version)
        return None

    def rpc_delete_blob(self, caller: Host, blob_id: int):
        yield from self._serialized(self.model.publish_overhead)
        self.registry.delete_blob(blob_id)
        return None

    # ------------------------------------------------------------------ #
    # lineage control plane (:mod:`repro.lineage`)
    # ------------------------------------------------------------------ #
    def rpc_lineage_entry(self, caller: Host, blob_id: int, version: int):
        """Fetch one snapshot's permanent lineage record.

        A restore reads one, its target's: the version's metadata root
        reaches every chunk it needs, so no ancestor is opened (unlike a
        qcow2 backing chain). A read-only registry lookup, unserialized,
        same price as ``lookup``.
        """
        yield self.host.env.timeout(self.model.publish_overhead / 4)
        return self.registry.lineage_entry(blob_id, version)

    def rpc_clone_lineage(self, caller: Host, blob_id: int, version: int):
        """CLONE from the lineage log (source may be retired); serialized."""
        yield from self._serialized(self.model.publish_overhead)
        return self.registry.clone_from_lineage(blob_id, version)

    def rpc_merge_chain(self, caller: Host, blob_id: int, version: int, keep_every: int):
        """Thin a snapshot chain where its lineage log lives
        (:meth:`~repro.blobseer.vmanager.BlobRegistry.merge_chain`): one
        serialized pass, priced like ``delete_blob`` retiring a whole blob."""
        yield from self._serialized(self.model.publish_overhead)
        return self.registry.merge_chain(blob_id, version, keep_every)

    def rpc_pin_version(self, caller: Host, blob_id: int, version: int):
        """Take a restore lease on a snapshot (cheap lookup cost)."""
        yield self.host.env.timeout(self.model.publish_overhead / 4)
        self.registry.pin_version(blob_id, version)
        return None

    def rpc_unpin_version(self, caller: Host, blob_id: int, version: int):
        """Drop a lease; any delete deferred behind it completes now."""
        yield self.host.env.timeout(self.model.publish_overhead / 4)
        self.registry.unpin_version(blob_id, version)
        return None

    def rpc_dedup_query(self, caller: Host, chunks, index):
        """Look up content fingerprints in the dedup index.

        ``chunks`` maps chunk index -> payload (standing in for its digest);
        ``index`` is the deployment's content-addressed index. Returns the
        subset with an existing :class:`ChunkRef`.
        """
        yield self.host.env.timeout(self.model.metadata_node_overhead * len(chunks))
        hits = {}
        for idx, payload in chunks.items():
            ref = index.get(payload)
            if ref is not None:
                hits[idx] = ref
        self.host.fabric.metrics.count("dedup-query", len(chunks))
        self.host.fabric.metrics.count("dedup-hit", len(hits))
        return hits
