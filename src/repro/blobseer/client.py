"""The BLOB client: the access library linked into every compute node.

A :class:`BlobClient` is bound to one host and talks to the deployment's
services over the simulated fabric. It implements the full BLOB API the
mirroring module needs:

* ``create`` / ``upload`` — register a blob and stripe content onto the
  data providers (write path: allocate -> parallel chunk PUTs -> metadata
  node scatter -> publish);
* ``read`` / ``fetch_chunks`` — versioned reads: metadata segment-tree
  traversal (batched per shard, client-side cache of the immutable nodes),
  then parallel chunk GETs grouped per data provider;
* ``write_chunks`` — the COMMIT data path: produces a *new snapshot* of the
  blob sharing all untouched chunks and metadata with its predecessor;
* ``clone`` — the CLONE primitive: a new blob sharing everything.

Every data and metadata RPC goes through one path: :meth:`BlobClient._call`
issues it, one failover loop (:meth:`BlobClient._failover`) moves a read that
hits a dead provider or shard on to the next replica recorded in the chunk's
:class:`~repro.blobseer.metadata.ChunkRef` (or the node's next metadata
home), and replicated PUTs prune the replicas that stay dead. A
:class:`~repro.faults.policy.RetryPolicy` only sets its numbers — a per-call
deadline, the number of rounds, the backoff between them; without one a read
tries each replica once and a write each replica once.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..common.errors import ProviderUnavailableError, StorageError
from ..common.payload import Payload
from ..simkit import rpc
from ..simkit.core import Timeout
from ..simkit.host import Host
from .metadata import ChunkRef, NodeId, TreeNode, write_chunks
from .vmanager import SnapshotRecord

#: marker for "latest published version"
LATEST = None


class BlobClient:
    """Per-host access library for one BlobSeer deployment."""

    def __init__(self, host: Host, deployment: "BlobSeerDeployment"):
        self.host = host
        self.deployment = deployment
        #: the deployment's append-only node list, indexed by node id: the
        #: metadata shards serve these very (immutable) objects
        self._nodes: List[TreeNode] = deployment.metadata.nodes
        #: the metadata cache: 1 at a node id once this client has fetched
        #: that node (a byte per node, grown by :meth:`_fetch_flags`)
        self._fetched = bytearray()
        self._snap_cache: Dict[Tuple[int, int], SnapshotRecord] = {}
        #: cooperative-exchange agent (:mod:`repro.p2p`); ``None`` keeps the
        #: provider-only fetch path byte-identical to a build without p2p
        self.peer_agent = None

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _parallel(self, gens: Sequence) -> List:
        if len(gens) == 1:
            # Overwhelmingly common (single shard / single provider): run
            # inline instead of paying a Process bootstrap + AllOf per fetch.
            result = yield from gens[0]
            return [result]
        procs = self.host.env.process_batch(gens)
        results = yield self.host.env.all_of(procs)
        return results

    def _lookup_snapshot(self, blob_id: int, version: Optional[int]):
        if version is not None:
            cached = self._snap_cache.get((blob_id, version))
            if cached is not None:
                return cached
        rec: SnapshotRecord = yield from rpc.call(
            self.host, self.deployment.vmanager_host, "blob-vmgr", "lookup", blob_id, version
        )
        self._snap_cache[(blob_id, rec.version)] = rec
        return rec

    def _fetch_flags(self) -> bytearray:
        """The fetched-node flags, grown to cover every node id minted so far."""
        fetched = self._fetched
        short = len(self._nodes) - len(fetched)
        if short > 0:
            fetched.extend(bytes(short))
        return fetched

    def _get_nodes(self, missing: Sequence[NodeId]):
        """Fetch uncached tree nodes into the client cache, batched per shard.

        A shard replies with the ids it holds; callers read the (immutable)
        nodes themselves from ``self._nodes``. A node whose home shard fails
        goes to its next home (:meth:`_failover`).
        """
        fetched = self._fetch_flags()

        def land(batches: List[List[NodeId]]):
            for batch in batches:
                for nid in batch:
                    fetched[nid] = 1

        with self.host.fabric.tracer.start("meta-walk", "meta", nodes=len(missing)):
            yield from self._failover(
                missing, self.deployment.shard_hosts, self._meta_round, land,
                "metadata nodes", "meta-retry",
            )

    def _meta_round(self, by_shard: Dict[Host, List[NodeId]], attempt: int):
        """One metadata round of :meth:`_failover`: a ``get_nodes`` per shard.

        Without a deadline the scatter is one fused :func:`rpc.gather`
        (DESIGN.md §8): a fault-free round wakes the client once.
        """
        work = list(by_shard.items())
        if self.deployment.retry is None:
            return work, rpc.gather(
                self.host,
                [(shard, "blob-meta", "get_nodes", shard_ids) for shard, shard_ids in work],
            )
        return work, self._parallel([
            rpc.settled(self._call(shard, "blob-meta", "get_nodes", shard_ids))
            for shard, shard_ids in work
        ])

    # ------------------------------------------------------------------ #
    # the one RPC path: data and metadata calls, read failover, replicated PUTs
    # ------------------------------------------------------------------ #
    def _call(
        self, callee: Host, service_name: str, method: str, *args,
        request_bytes: int = rpc.REQUEST_BYTES,
    ):
        """Issue one client RPC (``yield from`` the returned generator).

        Without a :class:`~repro.faults.policy.RetryPolicy` this is a plain
        :func:`rpc.call`; with one, the call races the policy's deadline
        (:meth:`_race`).
        """
        call = rpc.call(
            self.host, callee, service_name, method, *args, request_bytes=request_bytes
        )
        policy = self.deployment.retry
        return call if policy is None else self._race(call, callee, method, policy.rpc_timeout)

    def _race(self, call, callee: Host, method: str, timeout: float):
        """Run ``call`` in a child process raced against ``timeout``.

        On expiry the child is interrupted (its in-flight flow is abandoned)
        and the caller sees :class:`ProviderUnavailableError`, exactly like a
        fail-stop crash — so one failover path covers both.
        """
        env = self.host.env
        proc = env.process(call, name=f"rpc-{method}@{callee.name}")
        yield env.any_of((proc, Timeout(env, timeout)))
        if proc.triggered:
            if proc.ok:
                return proc.value
            raise proc.value  # failed in the same timestep the deadline fired
        proc.interrupt("rpc-timeout")
        raise ProviderUnavailableError(f"{callee.name}: {method} timed out after {timeout:g}s")

    def _failover(self, pending: Iterable, homes, attempt_round, land, what: str, counter: str):
        """The one failover loop behind metadata, chunk and exact-range reads.

        ``homes(item)`` ranks an item's homes, the preferred one first.
        Round ``a`` groups every pending item under its home of rank
        ``a mod k``; ``attempt_round(groups, a)`` orders the groups into
        ``(home, items)`` pairs and returns them with a scatter that yields
        one result per pair, the :data:`rpc.FAILOVER` error of a failed
        attempt as its result: ``land(results)`` takes what the homes
        served, and the items of a failed home go on to the next round. A
        :class:`~repro.faults.policy.RetryPolicy` sets the number of rounds
        and the backoff between them; without one each home is tried once,
        in rank order. Nothing of a failed last round lands: it raises the
        policy's summary error, or without a policy the first failure as it
        came.
        """
        attempt = 0
        while True:
            groups: Dict = {}
            for item in pending:
                ranked = homes(item)
                groups.setdefault(ranked[attempt % len(ranked)], []).append(item)
            work, scatter = attempt_round(groups, attempt)
            results = yield from scatter
            for result in results:
                if isinstance(result, BaseException):
                    break
            else:
                land(results)
                return
            failed = [
                (items, result) for (_, items), result in zip(work, results)
                if isinstance(result, BaseException)
            ]
            pending = [item for items, _ in failed for item in items]
            policy = self.deployment.retry
            rounds = policy.attempts if policy else max(len(homes(item)) for item in pending)
            if attempt + 1 >= rounds:  # nothing of a failed last round lands
                if policy is None:
                    raise failed[0][1]  # as it came, like a lone call's failure
                raise ProviderUnavailableError(
                    f"{what} {pending[:5]} unreachable after {rounds} attempts"
                )
            land([result for result in results if not isinstance(result, BaseException)])
            self.host.fabric.metrics.count(counter)
            if policy is not None:
                yield self.host.env.timeout(policy.delay_for(attempt))
            attempt += 1

    def _put_replicated(self, new_refs: Dict[int, ChunkRef], updates: Dict[int, Payload]):
        """Replicated chunk PUTs: the COMMIT data path.

        The client streams each replica group itself, one ``put_chunks`` per
        provider. Providers that stay dead are pruned from the affected
        :class:`ChunkRef`\\ s (the write degrades to fewer replicas instead of
        failing); only a chunk with *zero* surviving replicas aborts the
        commit. A policy gives every PUT its rounds and backoff; without one
        a provider gets one try. Returns the (possibly pruned) refs to record
        in the metadata.
        """
        dep = self.deployment
        policy = dep.retry
        metrics = self.host.fabric.metrics

        def put(name: str, indices: List[int]):
            """PUT ``indices`` to provider ``name``."""
            items = [(new_refs[i].key, updates[i]) for i in indices]
            request_bytes = sum(p.size for _, p in items) + 64 * len(items)
            attempts = policy.attempts if policy is not None else 1
            for attempt in range(attempts):
                try:
                    yield from self._call(
                        dep.fabric.hosts[name], "blob-data", "put_chunks", items,
                        request_bytes=request_bytes,
                    )
                    return True
                except rpc.FAILOVER:
                    if attempt + 1 < attempts:
                        metrics.count("put-retry")
                        yield self.host.env.timeout(policy.delay_for(attempt))
            return False

        groups: Dict[str, List[int]] = {}
        for idx in sorted(new_refs):
            for name in new_refs[idx].providers:
                groups.setdefault(name, []).append(idx)
        work = sorted(groups.items())
        results = yield from self._parallel([put(name, indices) for name, indices in work])
        dead = {name for ok, (name, _) in zip(results, work) if not ok}
        if not dead:
            return new_refs
        pruned: Dict[int, ChunkRef] = {}
        n_pruned = 0
        for idx, ref in new_refs.items():
            kept = tuple(p for p in ref.providers if p not in dead)
            if not kept:
                raise ProviderUnavailableError(
                    f"chunk {idx}: every replica target "
                    f"{ref.providers} failed during write"
                )
            if len(kept) != len(ref.providers):
                n_pruned += 1
                ref = ChunkRef(ref.key, kept, ref.size)
            pruned[idx] = ref
        metrics.count("replica-pruned", n_pruned)
        return pruned

    def _refs_for_range(self, root: Optional[NodeId], c_lo: int, c_hi: int):
        """Traverse the segment tree level by level, fetching nodes in batches.

        The cache is consulted inline: after warmup most traversals are fully
        cached and the loop runs without delegating to the fetch generator.
        """
        refs: Dict[int, ChunkRef] = {}
        frontier: List[NodeId] = [root] if root is not None else []
        fetched = self._fetch_flags()
        nodes = self._nodes
        while frontier:
            missing = [nid for nid in frontier if not fetched[nid]]
            if missing:
                yield from self._get_nodes(missing)
            next_frontier: List[NodeId] = []
            for nid in frontier:
                node = nodes[nid]
                lo = node.lo
                if node.hi <= c_lo or lo >= c_hi:
                    continue
                # A populated leaf always carries a ref; interior (and hole)
                # nodes never do, and their child slots are None — so the
                # ref test replaces the is_leaf property call per node.
                ref = node.ref
                if ref is not None:
                    refs[lo] = ref
                    continue
                left = node.left
                if left is not None:
                    next_frontier.append(left)
                right = node.right
                if right is not None:
                    next_frontier.append(right)
            frontier = next_frontier
        return refs

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def create(self, size: int, chunk_size: int):
        """Register a new empty blob; returns its id."""
        blob_id = yield from rpc.call(
            self.host, self.deployment.vmanager_host, "blob-vmgr", "create_blob", size, chunk_size
        )
        return blob_id

    def upload(self, blob_id: int, payload: Payload, replication: Optional[int] = None):
        """Stripe full content onto the providers; returns the snapshot record."""
        snap = yield from self._lookup_snapshot(blob_id, LATEST)
        n_chunks = -(-snap.size // snap.chunk_size)
        updates = {}
        for idx in range(n_chunks):
            lo = idx * snap.chunk_size
            hi = min(lo + snap.chunk_size, snap.size)
            updates[idx] = payload.slice(lo, hi)
        rec = yield from self.write_chunks(blob_id, updates, replication=replication)
        return rec

    def read(self, blob_id: int, version: Optional[int], offset: int, nbytes: int):
        """Versioned range read; holes read as zeros."""
        snap = yield from self._lookup_snapshot(blob_id, version)
        if offset < 0 or offset + nbytes > snap.size:
            raise StorageError(f"read beyond blob size {snap.size}")
        if nbytes == 0:
            return Payload()
        cs = snap.chunk_size
        c_lo, c_hi = offset // cs, -(-(offset + nbytes) // cs)
        chunks = yield from self.fetch_chunk_range(blob_id, version, c_lo, c_hi)
        parts: List[Payload] = []
        for idx in range(c_lo, c_hi):
            size = min(cs, snap.size - idx * cs)
            parts.append(chunks.get(idx, Payload.zeros(size)))
        whole = Payload.concat(parts)
        base = c_lo * cs
        return whole.slice(offset - base, offset + nbytes - base)

    def fetch_chunk_range(self, blob_id: int, version: Optional[int], c_lo: int, c_hi: int):
        """Fetch whole chunks ``[c_lo, c_hi)``; returns {index: payload} (holes absent)."""
        snap = yield from self._lookup_snapshot(blob_id, version)
        refs = yield from self._refs_for_range(snap.root, c_lo, c_hi)
        result = yield from self.fetch_refs(refs)
        return result

    def fetch_refs(self, refs: Dict[int, ChunkRef]):
        """Fetch the chunks described by ``refs``: peers first when the p2p
        agent is on, else grouped per provider, in parallel."""
        agent = self.peer_agent
        fetch = self._fetch_refs_providers(refs) if agent is None else agent.fetch_refs(self, refs)
        if not refs:  # an empty fetch opens no span
            return (yield from fetch)
        with self.host.fabric.tracer.start("chunk-fetch", "chunk", nchunks=len(refs)):
            return (yield from fetch)

    def _replicas(self, refs: Dict[int, ChunkRef]):
        """``homes`` of chunk ``idx`` for :meth:`_failover`: its replicas, preferred first.

        The preferred replica is rank 0, or the first same-rack one when the
        deployment reads rack-aware (``read_topology``); the others follow
        in rank order from it.
        """
        topo = self.deployment.read_topology
        if topo is None:
            return lambda idx: refs[idx].providers
        my_rack = topo.rack(self.host.name)

        def homes(idx: int) -> Tuple[str, ...]:
            providers = refs[idx].providers
            if len(providers) > 1:
                for rank, name in enumerate(providers):
                    if topo.rack(name) == my_rack:
                        return providers[rank:] + providers[:rank]
            return providers

        return homes

    def _fetch_refs_providers(self, refs: Dict[int, ChunkRef]):
        """The provider fetch (also the p2p fallback of last resort).

        One ``get_chunks`` per provider and round of :meth:`_failover`,
        each under a ``fetch-attempt:<round>`` span naming the replica rank
        it asked.
        """
        if not refs:
            return {}
        hosts = self.deployment.fabric.hosts
        tracer = self.host.fabric.tracer

        def fetch_group(provider_name: str, indices: List[int], attempt: int):
            indices.sort()
            keys = [refs[i].key for i in indices]
            try:
                with tracer.start(
                    f"fetch-attempt:{attempt}", "chunk",
                    provider=provider_name, attempt=attempt,
                    replica=refs[indices[0]].providers.index(provider_name),
                    nchunks=len(indices),
                ):
                    combined = yield from self._call(
                        hosts[provider_name], "blob-data", "get_chunks", keys
                    )
            except rpc.FAILOVER as exc:
                return exc  # these chunks go on to their next replica
            group: Dict[int, Payload] = {}
            cursor = 0
            for idx in indices:
                size = refs[idx].size
                group[idx] = combined.slice(cursor, cursor + size)
                cursor += size
            return group

        def fetch_round(by_provider: Dict[str, List[int]], attempt: int):
            work = sorted(by_provider.items())
            return work, self._parallel(
                [fetch_group(name, indices, attempt) for name, indices in work]
            )

        landed: List[Dict[int, Payload]] = []
        yield from self._failover(
            refs, self._replicas(refs), fetch_round, landed.extend, "chunks", "fetch-retry"
        )
        out: Dict[int, Payload] = {}
        for group in landed:
            out.update(group)
        return out

    def write_chunks(
        self,
        blob_id: int,
        updates: Dict[int, Payload],
        base_version: Optional[int] = None,
        replication: Optional[int] = None,
    ):
        """COMMIT data path: write whole chunks, publish a new snapshot.

        ``updates`` maps chunk index -> full chunk payload. The new snapshot
        equals ``base_version`` (default: latest) with those chunks replaced;
        everything else is shared by shadowing.

        When the deployment runs with deduplication, chunks whose content is
        already stored (by any blob) are referenced instead of re-pushed:
        the client fingerprints them (CPU cost) and queries the version
        manager's content index before allocating providers.

        Everything this commit stores is unreachable from published roots
        until the final publish lands, so freshly minted chunk keys and
        metadata nodes are pinned against :func:`~repro.blobseer.gc.
        collect_garbage` for the duration (released on success *and* abort).
        """
        dep = self.deployment
        pinned_keys: List[int] = []
        pinned_nodes: List[int] = []
        try:
            rec = yield from self._write_chunks_pinned(
                blob_id, updates, base_version, replication,
                pinned_keys, pinned_nodes,
            )
        finally:
            dep.unpin_inflight(keys=pinned_keys, nodes=pinned_nodes)
        return rec

    def _write_chunks_pinned(
        self,
        blob_id: int,
        updates: Dict[int, Payload],
        base_version: Optional[int],
        replication: Optional[int],
        pinned_keys: List[int],
        pinned_nodes: List[int],
    ):
        """COMMIT body; records GC pins in the caller-owned lists."""
        dep = self.deployment
        if replication is None:
            replication = dep.replication_factor
        snap = yield from self._lookup_snapshot(blob_id, base_version)
        for idx, payload in updates.items():
            expected = min(snap.chunk_size, snap.size - idx * snap.chunk_size)
            if payload.size != expected:
                raise StorageError(
                    f"chunk {idx}: payload {payload.size} B, expected {expected} B"
                )

        # 0. deduplication: reference already-stored content instead of pushing
        dedup_refs: Dict[int, ChunkRef] = {}
        if dep.dedup_index is not None and updates:
            total = sum(p.size for p in updates.values())
            yield self.host.env.timeout(total / dep.model.fingerprint_bandwidth)
            dedup_refs = yield from rpc.call(
                self.host, dep.vmanager_host, "blob-vmgr", "dedup_query",
                dict(updates), dep.dedup_index,
                request_bytes=40 * len(updates),
            )
            self.host.fabric.metrics.count("dedup-reused", len(dedup_refs))
            updates = {idx: p for idx, p in updates.items() if idx not in dedup_refs}

        # 1. placement
        tracer = self.host.fabric.tracer
        with tracer.start("chunk-publish", "chunk", nchunks=len(updates)):
            indices = sorted(updates)
            placements = yield from rpc.call(
                self.host, dep.vmanager_host, "blob-pmgr", "allocate",
                len(indices), snap.chunk_size, replication,
            )

            # 2. chunk PUTs to every replica
            new_refs: Dict[int, ChunkRef] = {}
            for idx, providers in zip(indices, placements):
                key = dep.minter.mint_one()
                new_refs[idx] = ChunkRef(key, tuple(providers), updates[idx].size)

            # pin before the first PUT yields; dedup'd refs may point at
            # chunks another still-unpublished commit registered, so pin
            # those too (refcounted)
            pin = [new_refs[idx].key for idx in indices]
            pin += [ref.key for ref in dedup_refs.values()]
            pinned_keys.extend(pin)
            dep.pin_inflight(keys=pin)

            new_refs = yield from self._put_replicated(new_refs, updates)

        # register freshly pushed content, then fold in deduplicated refs
        if dep.dedup_index is not None:
            for idx, payload in updates.items():
                dep.dedup_index.setdefault(payload, new_refs[idx])
        new_refs.update(dedup_refs)

        # 3. metadata: build the shadowed tree, scatter new nodes to every
        # home shard (one home per node unless meta_replication > 1)
        n_chunks = -(-snap.size // snap.chunk_size)
        before = len(dep.metadata)
        new_root = write_chunks(dep.metadata, snap.root, new_refs, n_chunks)
        new_node_ids = range(before, len(dep.metadata))
        pinned_nodes.extend(new_node_ids)
        dep.pin_inflight(nodes=new_node_ids)
        by_shard: Dict[Host, Dict[NodeId, TreeNode]] = {}
        for nid in new_node_ids:
            node = dep.metadata.get(nid)
            for home in dep.shard_hosts(nid):
                by_shard.setdefault(home, {})[nid] = node
        if by_shard:
            with tracer.start("meta-scatter", "meta", nodes=len(new_node_ids)):
                puts = list(by_shard.items())
                results = yield from self._parallel([
                    rpc.settled(self._call(shard, "blob-meta", "put_nodes", nodes))
                    for shard, nodes in puts
                ])
                ok_shards = {
                    shard.name for result, (shard, _) in zip(results, puts)
                    if not isinstance(result, BaseException)
                }
                if len(ok_shards) < len(puts):
                    for nid in new_node_ids:
                        if not any(h.name in ok_shards for h in dep.shard_hosts(nid)):
                            raise ProviderUnavailableError(
                                f"metadata node {nid}: no home shard accepted the write"
                            )

        # 4. publish: the version manager orders the snapshot
        rec: SnapshotRecord = yield from rpc.call(
            self.host, dep.vmanager_host, "blob-vmgr", "publish", blob_id, new_root
        )
        self._snap_cache[(blob_id, rec.version)] = rec
        return rec

    def clone(self, blob_id: int, version: Optional[int] = None):
        """CLONE primitive: returns the first snapshot record of the new blob."""
        rec: SnapshotRecord = yield from rpc.call(
            self.host, self.deployment.vmanager_host, "blob-vmgr", "clone", blob_id, version
        )
        self._snap_cache[(rec.blob_id, rec.version)] = rec
        return rec
