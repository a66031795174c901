"""Cooperative chunk exchange between compute nodes.

The multideployment hot path (paper §5, Fig. 4) has all N booting nodes
pulling the *same* hot image chunks from the same few data providers. With
peer exchange enabled, every compute node runs a :class:`PeerExchangeService`
that serves chunks out of its :class:`~repro.p2p.cache.PeerChunkCache` over
the flow network, and every mirror fetch goes through a :class:`PeerAgent`:

1. **local** — chunks already in this node's own cache are free;
2. **peers** — a directory lookup (:mod:`repro.p2p.directory`) yields
   candidate holders; misses are requested from them in ranked waves, each
   wave fanned out per peer in parallel. A peer that is down, crashes
   mid-transfer, or simply no longer caches the chunk costs one failed
   attempt and the next candidate (or the provider) takes over — peer
   failures are *never* surfaced to the reader;
3. **providers** — whatever is still missing goes down the client's
   provider fetch (replica failover, tuned by the deployment's
   :class:`~repro.faults.policy.RetryPolicy` when one is configured).

Everything fetched — from peers or providers — lands in the local cache and
is announced, so the first booter (or the access-profile prefetcher warming
it) becomes the root of an emergent distribution tree.

With ``p2p=False`` (the default) none of this code is reachable:
``BlobClient.peer_agent`` stays ``None`` and the fetch path is byte-identical
to a build without this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..blobseer.metadata import ChunkRef
from ..calibration import ServiceModel
from ..common.errors import StorageError
from ..common.payload import Payload
from ..common.units import MiB
from ..simkit import rpc
from ..simkit.core import Timeout
from ..simkit.host import Fabric, Host
from .cache import PeerChunkCache
from .directory import (
    DIRECTORY_SERVICE,
    AnnounceDirectory,
    PeerDirectoryService,
    RendezvousDirectory,
)

#: service name every participating compute node binds the exchange under
PEER_SERVICE = "p2p-exch"

#: wire overhead per key in a peer response (hit mask + framing)
PEER_ENTRY_BYTES = 16


@dataclass(frozen=True)
class P2PConfig:
    """Knobs for the cooperative exchange layer."""

    #: per-node peer cache budget
    cache_bytes: int = 64 * MiB
    #: candidate-holder strategy: "announce" or "rendezvous"
    directory: str = "announce"
    #: how many candidate peers to try per chunk before the provider path
    locate_fanout: int = 2

    def __post_init__(self):
        if self.cache_bytes <= 0:
            raise StorageError(f"p2p cache_bytes must be positive, got {self.cache_bytes}")
        if self.directory not in ("announce", "rendezvous"):
            raise StorageError(
                f"unknown p2p directory {self.directory!r} "
                "(expected 'announce' or 'rendezvous')"
            )
        if self.locate_fanout < 1:
            raise StorageError(f"locate_fanout must be >= 1, got {self.locate_fanout}")


class PeerExchangeService:
    """Serves this node's cached chunks to its peers (best effort)."""

    def __init__(self, host: Host, cache: PeerChunkCache, model: ServiceModel):
        self.host = host
        self.cache = cache
        self.model = model

    def rpc_get_cached(self, caller: Host, keys: Sequence[int]):
        """Return ``(hit_keys, combined_payload)`` for the cached subset.

        Misses are not an error: the response simply omits them and the
        caller moves on to its next candidate. Hits are RAM-served (the
        cache *is* RAM), so the only costs are the per-request overhead and
        the response flow.
        """
        env = self.host.env
        cache = self.cache
        hit_keys: List[int] = []
        parts: List[Payload] = []
        for key in keys:
            yield Timeout(env, self.model.chunk_request_overhead)
            payload = cache.get(key)
            if payload is not None:
                hit_keys.append(key)
                parts.append(payload)
        combined = Payload.concat(parts) if parts else Payload()
        metrics = self.host.fabric.metrics
        metrics.count("p2p-serve-hit", len(hit_keys))
        metrics.count("p2p-serve-miss", len(keys) - len(hit_keys))
        metrics.count("p2p-bytes-served", combined.size)
        self.host.fabric.tracer.record(
            "p2p.serve", "p2p", env.now, env.now,
            peer=self.host.name, requested=len(keys),
            hits=len(hit_keys), misses=len(keys) - len(hit_keys),
            nbytes=combined.size,
        )
        return rpc.Sized(
            (tuple(hit_keys), combined),
            combined.size + PEER_ENTRY_BYTES * len(keys),
        )

    def on_host_crash(self):
        """The peer cache is RAM: a crash loses it (and stops serving)."""
        self.cache.clear()


class PeerAgent:
    """Per-node fetch-side logic: local cache, then peers, then providers."""

    def __init__(self, network: "PeerNetwork", host: Host, cache: PeerChunkCache):
        self.network = network
        self.host = host
        self.cache = cache
        self.directory = network.directory
        self.config = network.config

    # ------------------------------------------------------------------ #
    def fetch_refs(self, client, refs: Dict[int, ChunkRef]):
        """Peer-first replacement for the client's provider fetch.

        ``client`` is the :class:`~repro.blobseer.client.BlobClient` that
        delegated to us; its provider fetch (``_fetch_refs_providers``, with
        its replica failover) remains the fallback of last resort.
        """
        metrics = self.host.fabric.metrics
        out: Dict[int, Payload] = {}
        if not refs:
            return out

        # 1. own cache: free, no simulated time
        pending: Dict[int, ChunkRef] = {}
        local_bytes = 0
        for idx in sorted(refs):
            ref = refs[idx]
            payload = self.cache.get(ref.key)
            if payload is not None:
                out[idx] = payload
                local_bytes += payload.size
            else:
                pending[idx] = ref
        if out:
            metrics.count("p2p-local-hit", len(out))
        if not pending:
            return out

        with self.host.fabric.tracer.start(
            "p2p.fetch", "p2p", node=self.host.name, nchunks=len(pending)
        ) as span:
            peer_served = yield from self._fetch_from_peers(client, pending)
            out.update(peer_served)
            for idx in peer_served:
                del pending[idx]
            span.set(peer_hits=len(peer_served), provider_misses=len(pending))

        # 3. provider path for whatever peers could not supply
        if pending:
            fetched = yield from client._fetch_refs_providers(pending)
            metrics.count("p2p-chunk-miss", len(fetched))
            metrics.count(
                "p2p-bytes-provider", sum(p.size for p in fetched.values())
            )
            out.update(fetched)

        # 4. populate our cache + announce (everything newly obtained)
        new_keys: List[int] = []
        for idx in sorted(out):
            ref = refs[idx]
            if ref.key not in self.cache and self.cache.put(ref.key, out[idx]):
                new_keys.append(ref.key)
        if new_keys:
            self.directory.on_cached(self, new_keys)
        return out

    # ------------------------------------------------------------------ #
    def _fetch_from_peers(self, client, pending: Dict[int, ChunkRef]):
        """Ask candidate holders in ranked waves; returns what they served."""
        metrics = self.host.fabric.metrics
        fabric = self.host.fabric
        key_to_idx = {ref.key: idx for idx, ref in pending.items()}
        candidates = yield from self.directory.locate(self, sorted(key_to_idx))
        served: Dict[int, Payload] = {}
        missing = set(key_to_idx)
        for rank in range(self.config.locate_fanout):
            by_peer: Dict[str, List[int]] = {}
            for key in sorted(missing):
                cands = candidates.get(key, ())
                if rank < len(cands):
                    by_peer.setdefault(cands[rank], []).append(key)
            if not by_peer:
                break

            def ask(peer_name: str, keys: List[int], rank: int = rank):
                peer = fabric.hosts[peer_name]
                if peer.down:
                    # known-dead peer: skip without paying the RPC timeout
                    return None
                with fabric.tracer.start(
                    f"p2p.attempt:{rank}", "p2p",
                    peer=peer_name, rank=rank, nchunks=len(keys),
                ) as span:
                    try:
                        hit_keys, combined = yield from client._call(
                            peer, PEER_SERVICE, "get_cached", keys
                        )
                    except rpc.FAILOVER as exc:
                        # peer died (possibly mid-transfer) — next candidate or
                        # the provider path picks these chunks up
                        metrics.count("p2p-peer-failover")
                        span.set_error(exc)
                        return None
                    span.set(hits=len(hit_keys))
                group: Dict[int, Payload] = {}
                cursor = 0
                for key in hit_keys:
                    size = pending[key_to_idx[key]].size
                    group[key] = combined.slice(cursor, cursor + size)
                    cursor += size
                return group

            work = sorted(by_peer.items())
            groups = yield from client._parallel(
                [ask(name, keys) for name, keys in work]
            )
            got: Dict[int, Payload] = {}
            for group in groups:
                if group is not None:
                    got.update(group)
            for key in sorted(got):
                served[key_to_idx[key]] = got[key]
            if got:
                metrics.count("p2p-chunk-hit", len(got))
                metrics.count("p2p-bytes-peer", sum(p.size for p in got.values()))
                missing -= set(got)
            if not missing:
                break
        return served


class PeerNetwork:
    """All p2p state for one cloud: caches, services, the directory."""

    def __init__(
        self,
        fabric: Fabric,
        compute_hosts: Sequence[Host],
        model: ServiceModel,
        config: Optional[P2PConfig] = None,
        directory_host: Optional[Host] = None,
        topology=None,
    ):
        self.fabric = fabric
        self.config = config if config is not None else P2PConfig()
        self.model = model
        #: multi-rack topology for rack-ranked peer selection, or None
        self.topology = topology
        self.caches: Dict[str, PeerChunkCache] = {}
        self.services: Dict[str, PeerExchangeService] = {}
        self.agents: Dict[str, PeerAgent] = {}
        for host in compute_hosts:
            cache = PeerChunkCache(self.config.cache_bytes)
            svc = PeerExchangeService(host, cache, model)
            rpc.bind(host, PEER_SERVICE, svc)
            self.caches[host.name] = cache
            self.services[host.name] = svc

        if self.config.directory == "rendezvous":
            self.directory_service = None
            self.directory = RendezvousDirectory(
                [h.name for h in compute_hosts], self.config.locate_fanout,
                topology=topology,
            )
        else:
            if directory_host is None:
                raise StorageError("announce directory needs a directory_host")
            self.directory_service = PeerDirectoryService(
                directory_host, model, topology=topology,
            )
            rpc.bind(directory_host, DIRECTORY_SERVICE, self.directory_service)
            self.directory = AnnounceDirectory(
                directory_host, self.config.locate_fanout, topology=topology
            )

    def agent_for(self, host: Host) -> Optional[PeerAgent]:
        """The fetch-side agent of ``host`` (None if not in the peer set)."""
        agent = self.agents.get(host.name)
        if agent is None:
            cache = self.caches.get(host.name)
            if cache is None:
                return None
            agent = PeerAgent(self, host, cache)
            self.agents[host.name] = agent
        return agent

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        """Peer-exchange effectiveness, read from the fabric's metrics."""
        c = self.fabric.metrics.counters
        local = c.get("p2p-local-hit", 0)
        peer = c.get("p2p-chunk-hit", 0)
        miss = c.get("p2p-chunk-miss", 0)
        total = local + peer + miss
        bytes_peer = c.get("p2p-bytes-peer", 0)
        bytes_provider = c.get("p2p-bytes-provider", 0)
        return {
            "chunks_local": local,
            "chunks_from_peers": peer,
            "chunks_from_providers": miss,
            "peer_hit_ratio": (local + peer) / total if total else 0.0,
            "bytes_from_peers": bytes_peer,
            "bytes_from_providers": bytes_provider,
            "peer_failovers": c.get("p2p-peer-failover", 0),
            "cache_evictions": sum(
                cache.evictions for cache in self.caches.values()
            ),
        }
