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

Replica failover: a chunk GET that hits a dead provider retries the other
replicas recorded in the chunk's :class:`~repro.blobseer.metadata.ChunkRef`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..common.errors import ChunkNotFoundError, ProviderUnavailableError, StorageError
from ..common.payload import Payload
from ..simkit import rpc
from ..simkit.core import Timeout
from ..simkit.host import Host
from .metadata import ChunkRef, NodeId, TreeNode, capacity_for, write_chunks
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

    def cached_nodes(self) -> List[NodeId]:
        """Ids of the tree nodes in this client's metadata cache, ascending."""
        return [nid for nid, flag in enumerate(self._fetched) if flag]

    def _get_nodes(self, ids: Sequence[NodeId]):
        """Fetch tree nodes into the client cache, batched per metadata shard.

        A shard replies with the ids it holds; callers read the (immutable)
        nodes themselves from ``self._nodes``.
        """
        fetched = self._fetch_flags()
        missing = [nid for nid in ids if not fetched[nid]]
        if missing:
            with self.host.fabric.tracer.start("meta-walk", "meta", nodes=len(missing)):
                if self.deployment.retry is not None:
                    yield from self._get_nodes_resilient(missing)
                    return
                by_shard: Dict[Host, List[NodeId]] = {}
                for nid in missing:
                    by_shard.setdefault(self.deployment.shard_host(nid), []).append(nid)
                batches = yield from rpc.gather(
                    self.host,
                    [
                        (shard, "blob-meta", "get_nodes", shard_ids)
                        for shard, shard_ids in by_shard.items()
                    ],
                )
                for batch in batches:
                    for nid in batch:
                        fetched[nid] = 1

    # ------------------------------------------------------------------ #
    # resilience (active only when the deployment carries a RetryPolicy;
    # with ``retry=None`` none of these run and the legacy paths above
    # execute byte-identically)
    # ------------------------------------------------------------------ #
    def _call_with_timeout(
        self, callee: Host, service_name: str, method: str, *args,
        request_bytes: int = rpc.REQUEST_BYTES,
    ):
        """``rpc.call`` bounded by the retry policy's per-RPC deadline.

        The call runs in a child process raced against a timeout; on
        expiry the child is interrupted (its in-flight flow is abandoned)
        and the caller sees :class:`ProviderUnavailableError`, exactly like
        a fail-stop crash — so one failover path covers both.
        """
        policy = self.deployment.retry
        env = self.host.env
        proc = env.process(
            rpc.call(
                self.host, callee, service_name, method, *args,
                request_bytes=request_bytes,
            ),
            name=f"rpc-{method}@{callee.name}",
        )
        deadline = Timeout(env, policy.rpc_timeout)
        yield env.any_of((proc, deadline))
        if proc.triggered:
            if proc.ok:
                return proc.value
            raise proc.value  # failed in the same timestep the deadline fired
        proc.interrupt("rpc-timeout")
        raise ProviderUnavailableError(
            f"{callee.name}: {method} timed out after {policy.rpc_timeout:g}s"
        )

    def _get_nodes_resilient(self, missing: Sequence[NodeId]):
        """Metadata fetch with multi-home failover + bounded backoff.

        Attempt ``a`` asks node ``nid``'s home of rank ``a mod k`` (the
        primary first), so a lost shard redirects its nodes to the replica
        homes while untouched shards keep serving their primaries.
        """
        dep = self.deployment
        policy = dep.retry
        metrics = self.host.fabric.metrics
        fetched = self._fetched
        pending: List[NodeId] = list(missing)
        for attempt in range(policy.attempts):
            by_shard: Dict[Host, List[NodeId]] = {}
            for nid in pending:
                homes = dep.shard_hosts(nid)
                by_shard.setdefault(homes[attempt % len(homes)], []).append(nid)

            def guarded(shard: Host, shard_ids: List[NodeId]):
                try:
                    batch = yield from self._call_with_timeout(
                        shard, "blob-meta", "get_nodes", shard_ids
                    )
                except (ProviderUnavailableError, ChunkNotFoundError):
                    return None
                return batch

            groups = list(by_shard.items())
            batches = yield from self._parallel(
                [guarded(shard, shard_ids) for shard, shard_ids in groups]
            )
            pending = []
            for batch, (_shard, shard_ids) in zip(batches, groups):
                if batch is None:
                    pending.extend(shard_ids)
                else:
                    for nid in batch:
                        fetched[nid] = 1
            if not pending:
                return
            metrics.count("meta-retry")
            yield self.host.env.timeout(policy.delay_for(attempt))
        raise ProviderUnavailableError(
            f"metadata nodes {pending[:5]} unreachable after "
            f"{policy.attempts} attempts"
        )

    def _fetch_refs_resilient(self, refs: Dict[int, ChunkRef]):
        """Chunk fetch with replica failover + bounded backoff.

        Attempt ``a`` reads each still-missing chunk from its replica of
        rank ``a mod k``, batched per provider; failed groups roll over to
        the next attempt after an exponential-backoff delay.
        """
        dep = self.deployment
        policy = dep.retry
        metrics = self.host.fabric.metrics
        out: Dict[int, Payload] = {}
        pending: List[int] = sorted(refs)
        if not pending:
            return out
        for attempt in range(policy.attempts):
            by_provider: Dict[str, List[int]] = {}
            for idx in pending:
                providers = refs[idx].providers
                by_provider.setdefault(providers[attempt % len(providers)], []).append(idx)

            def guarded(provider_name: str, indices: List[int]):
                keys = [refs[i].key for i in indices]
                provider = dep.fabric.hosts[provider_name]
                # one span per failover attempt: which replica rank was
                # asked, and (on failure) why the attempt died
                with self.host.fabric.tracer.start(
                    f"fetch-attempt:{attempt}", "chunk",
                    provider=provider_name, attempt=attempt,
                    replica=attempt % len(refs[indices[0]].providers),
                    nchunks=len(indices),
                ) as span:
                    try:
                        combined = yield from self._call_with_timeout(
                            provider, "blob-data", "get_chunks", keys
                        )
                    except (ProviderUnavailableError, ChunkNotFoundError) as exc:
                        span.set_error(exc)
                        return None
                group: Dict[int, Payload] = {}
                cursor = 0
                for i in indices:
                    size = refs[i].size
                    group[i] = combined.slice(cursor, cursor + size)
                    cursor += size
                return group

            work = sorted(by_provider.items())
            groups = yield from self._parallel(
                [guarded(name, indices) for name, indices in work]
            )
            pending = []
            for group, (_name, indices) in zip(groups, work):
                if group is None:
                    pending.extend(indices)
                else:
                    out.update(group)
            if not pending:
                return out
            pending.sort()
            metrics.count("fetch-retry")
            yield self.host.env.timeout(policy.delay_for(attempt))
        raise ProviderUnavailableError(
            f"chunks {pending[:5]} unreachable on every replica after "
            f"{policy.attempts} attempts"
        )

    def _put_replicated(self, new_refs: Dict[int, ChunkRef], updates: Dict[int, Payload]):
        """Replicated chunk PUTs under a retry policy and/or chain pipelining.

        * ``parallel`` mode — the client streams each replica group itself,
          retrying per provider with backoff. Providers that stay dead are
          pruned from the affected :class:`ChunkRef`\\ s (the write degrades
          to fewer replicas instead of failing); only a chunk with *zero*
          surviving replicas aborts the commit.
        * ``pipeline`` mode — each replica set is written once through a
          store-and-forward chain starting at its head; on failure the chain
          is retried rotated one rank (idempotent provider puts make the
          resend safe).

        Returns the (possibly pruned) refs to record in the metadata.
        """
        dep = self.deployment
        policy = dep.retry
        env = self.host.env
        metrics = self.host.fabric.metrics
        attempts = policy.attempts if policy is not None else 1

        if dep.replica_write_mode == "pipeline":
            by_chain: Dict[Tuple[str, ...], List[int]] = {}
            for idx in sorted(new_refs):
                by_chain.setdefault(new_refs[idx].providers, []).append(idx)

            def put_chain(chain: Tuple[str, ...], indices: List[int]):
                items = [(new_refs[i].key, updates[i]) for i in indices]
                total = sum(p.size for _, p in items)
                for attempt in range(attempts):
                    shift = attempt % len(chain)
                    rotated = chain[shift:] + chain[:shift]
                    head = dep.fabric.hosts[rotated[0]]
                    try:
                        if policy is not None:
                            yield from self._call_with_timeout(
                                head, "blob-data", "put_chunks_chain",
                                items, rotated[1:],
                                request_bytes=total + 64 * len(items),
                            )
                        else:
                            yield from rpc.call(
                                self.host, head, "blob-data", "put_chunks_chain",
                                items, rotated[1:],
                                request_bytes=total + 64 * len(items),
                            )
                        return
                    except (ProviderUnavailableError, ChunkNotFoundError):
                        if policy is None or attempt + 1 == attempts:
                            raise
                        metrics.count("put-retry")
                        yield env.timeout(policy.delay_for(attempt))

            yield from self._parallel(
                [put_chain(chain, idxs) for chain, idxs in sorted(by_chain.items())]
            )
            return new_refs

        # parallel mode with retries + replica pruning
        by_provider: Dict[str, List[int]] = {}
        for idx in sorted(new_refs):
            for name in new_refs[idx].providers:
                by_provider.setdefault(name, []).append(idx)

        def put_group(provider_name: str, indices: List[int]):
            items = [(new_refs[i].key, updates[i]) for i in indices]
            total = sum(p.size for _, p in items)
            provider = dep.fabric.hosts[provider_name]
            for attempt in range(attempts):
                try:
                    yield from self._call_with_timeout(
                        provider, "blob-data", "put_chunks", items,
                        request_bytes=total + 64 * len(items),
                    )
                    return True
                except (ProviderUnavailableError, ChunkNotFoundError):
                    if attempt + 1 < attempts:
                        metrics.count("put-retry")
                        yield env.timeout(policy.delay_for(attempt))
            return False

        work = sorted(by_provider.items())
        results = yield from self._parallel(
            [put_group(name, indices) for name, indices in work]
        )
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
        """Fetch the chunks described by ``refs``, grouped per provider, in parallel."""
        if not refs:  # an empty fetch opens no span
            return (yield from self._fetch_refs_impl(refs))
        with self.host.fabric.tracer.start("chunk-fetch", "chunk", nchunks=len(refs)):
            return (yield from self._fetch_refs_impl(refs))

    def _fetch_refs_impl(self, refs: Dict[int, ChunkRef]):
        if self.peer_agent is not None:
            result = yield from self.peer_agent.fetch_refs(self, refs)
            return result
        result = yield from self._fetch_refs_providers(refs)
        return result

    def _read_replica(self, ref: ChunkRef) -> str:
        """Which replica to read: same-rack when the deployment is rack-aware.

        ``read_topology`` is None unless the cloud was built rack-aware, so
        the default path stays exactly ``providers[0]`` (seed behavior).
        """
        providers = ref.providers
        topo = self.deployment.read_topology
        if topo is None or len(providers) == 1:
            return providers[0]
        my_rack = topo.rack(self.host.name)
        for p in providers:
            if topo.rack(p) == my_rack:
                return p
        return providers[0]

    def _fetch_refs_providers(self, refs: Dict[int, ChunkRef]):
        """The provider-only fetch path (also the p2p fallback of last resort)."""
        if self.deployment.retry is not None:
            result = yield from self._fetch_refs_resilient(refs)
            return result
        by_provider: Dict[str, List[int]] = {}
        for idx, ref in refs.items():
            by_provider.setdefault(self._read_replica(ref), []).append(idx)

        def fetch_group(provider_name: str, indices: List[int], replica: int = 0):
            indices = sorted(indices)
            keys = [refs[i].key for i in indices]
            provider = self.deployment.fabric.hosts[provider_name]
            try:
                combined = yield from rpc.call(
                    self.host, provider, "blob-data", "get_chunks", keys
                )
            except ProviderUnavailableError:
                # Fail over chunk by chunk to the next replica.
                out: Dict[int, Payload] = {}
                for idx in indices:
                    ref = refs[idx]
                    if replica + 1 >= len(ref.providers):
                        raise
                    alt = self.deployment.fabric.hosts[ref.providers[replica + 1]]
                    payload = yield from rpc.call(
                        self.host, alt, "blob-data", "get_chunks", [ref.key]
                    )
                    out[idx] = payload
                return out
            out = {}
            cursor = 0
            for idx in indices:
                size = refs[idx].size
                out[idx] = combined.slice(cursor, cursor + size)
                cursor += size
            return out

        groups = yield from self._parallel(
            [fetch_group(p, idxs) for p, idxs in sorted(by_provider.items())]
        )
        merged: Dict[int, Payload] = {}
        for group in groups:
            merged.update(group)
        return merged

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
                self.host, dep.pmanager_host, "blob-pmgr", "allocate",
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

            if dep.retry is None and dep.replica_write_mode == "parallel":
                # Original path: parallel fan-out grouped per provider, no
                # timeouts, fail-fast (byte-identical to the pre-fault code).
                by_provider: Dict[str, List[Tuple[int, Payload]]] = {}
                for idx in indices:
                    ref = new_refs[idx]
                    for name in ref.providers:
                        by_provider.setdefault(name, []).append((ref.key, updates[idx]))

                def put_group(provider_name: str, items: List[Tuple[int, Payload]]):
                    provider = dep.fabric.hosts[provider_name]
                    total = sum(p.size for _, p in items)
                    yield from rpc.call(
                        self.host, provider, "blob-data", "put_chunks", items,
                        request_bytes=total + 64 * len(items),
                    )

                yield from self._parallel(
                    [put_group(p, items) for p, items in sorted(by_provider.items())]
                )
            else:
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
                if dep.retry is None:
                    yield from self._parallel(
                        [
                            rpc.call(self.host, shard, "blob-meta", "put_nodes", nodes)
                            for shard, nodes in puts
                        ]
                    )
                else:
                    def guarded_put(shard: Host, nodes: Dict[NodeId, TreeNode]):
                        try:
                            yield from self._call_with_timeout(
                                shard, "blob-meta", "put_nodes", nodes
                            )
                        except (ProviderUnavailableError, ChunkNotFoundError):
                            return False
                        return True

                    oks = yield from self._parallel(
                        [guarded_put(shard, nodes) for shard, nodes in puts]
                    )
                    ok_shards = {shard.name for ok, (shard, _) in zip(oks, puts) if ok}
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
