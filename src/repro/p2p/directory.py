"""Peer directories: which peers *likely* hold a chunk.

Two interchangeable strategies, selected by
:attr:`~repro.p2p.exchange.P2PConfig.directory`:

* ``announce`` — a lightweight directory service (bound on the cloud's
  manager node) where every peer announces the chunk keys it caches as a
  side effect of each fetch. Announcements ride a background process so
  they never sit on the fetch critical path; lookups are one small
  synchronous RPC per fetch batch. The directory answers with *actual*
  holders, rotated per key so repeated lookups spread load across them.
* ``rendezvous`` — no directory traffic at all: every node independently
  ranks the peer set by a deterministic hash over ``(chunk key, peer)``
  (highest-random-weight hashing) and asks the top-ranked owners. Because
  every booter of the same image fetches the same hot chunks, the owners of
  a chunk acquire it within the first deployment wave and then serve
  everyone else — candidate selection is free and uniformly spread by
  construction.

Both return candidates only; a candidate that turns out not to hold the
chunk (or is down) is a *miss* and the agent falls back to the next
candidate and ultimately to the provider path — stale directory state can
cost a round trip, never correctness.

When a multi-rack :class:`~repro.topo.Topology` is attached (and the cloud
is built ``topo_aware``), both strategies *rack-rank* their candidate
lists: same-rack holders come first (stable partition, preserving the
strategy's own order within each group), so a chunk cached anywhere in the
reader's rack is fetched without crossing the oversubscribed uplink. With
no topology the ranking is the identity function — candidate order is
byte-identical to the seed.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..calibration import ServiceModel
from ..simkit import rpc
from ..simkit.core import Timeout
from ..simkit.host import Host

if TYPE_CHECKING:  # pragma: no cover
    from .exchange import PeerAgent

#: service name the announce directory binds under on its host
DIRECTORY_SERVICE = "p2p-dir"

#: wire bytes per (key -> holders) entry in a locate response
LOCATE_ENTRY_BYTES = 24


def rack_ranked(
    topology, me: str, names: Tuple[str, ...]
) -> Tuple[str, ...]:
    """Stable-partition candidates: same-rack as ``me`` first.

    Order within each partition is preserved, so whatever spreading the
    strategy already does (HRW rank, rotation cursor) survives inside the
    rack groups. ``topology=None`` returns ``names`` unchanged.
    """
    if topology is None or len(names) < 2:
        return names
    my_rack = topology.rack(me)
    same = tuple(n for n in names if topology.rack(n) == my_rack)
    if not same or len(same) == len(names):
        return names
    return same + tuple(n for n in names if topology.rack(n) != my_rack)


class RendezvousDirectory:
    """Stateless highest-random-weight ownership over the peer set."""

    name = "rendezvous"

    def __init__(self, peer_names: Sequence[str], fanout: int, topology=None):
        self.peers: Tuple[str, ...] = tuple(peer_names)
        self.fanout = max(1, min(fanout, len(self.peers)))
        #: multi-rack topology for rack-ranking, or None (seed order)
        self.topology = topology

    def ranked(self, key: int) -> List[str]:
        """Every peer in highest-random-weight order for ``key``."""
        return sorted(
            self.peers,
            key=lambda name: zlib.crc32(f"{key}:{name}".encode()),
            reverse=True,
        )

    def owners(self, key: int) -> List[str]:
        """The ``fanout`` peers ranked highest for ``key`` (deterministic)."""
        return self.ranked(key)[: self.fanout]

    def locate(self, agent: "PeerAgent", keys: Sequence[int]):
        """Candidate holders per key; pure computation, no simulated time."""
        me = agent.host.name
        topo = self.topology
        out: Dict[int, Tuple[str, ...]] = {}
        for key in keys:
            if topo is None:
                out[key] = tuple(n for n in self.owners(key) if n != me)
            else:
                # rack-local rendezvous: partition the *full* HRW order by
                # rack before truncating, so each rack converges on its own
                # top-ranked holders and fetches stay off the uplink
                ranked = tuple(n for n in self.ranked(key) if n != me)
                out[key] = rack_ranked(topo, me, ranked)[: self.fanout]
        return out
        yield  # pragma: no cover — generator protocol, body never yields

    def on_cached(self, agent: "PeerAgent", keys: Sequence[int]) -> None:
        """Rendezvous needs no announcements: ownership is computed."""


class PeerDirectoryService:
    """The announce directory's server side (one instance per cloud)."""

    def __init__(
        self, host: Host, model: ServiceModel, max_holders: int = 16, topology=None
    ):
        self.host = host
        self.model = model
        self.max_holders = max_holders
        #: multi-rack topology: rank holders by the caller's rack before
        #: truncating to fanout (the server sees *all* holders, the client
        #: only the fanout-sized answer — ranking must happen here)
        self.topology = topology
        #: chunk key -> insertion-ordered holder names (dict-as-ordered-set)
        self.holders: Dict[int, Dict[str, None]] = {}
        #: per-key rotation cursor spreading lookups across holders
        self._cursor: Dict[int, int] = {}

    def rpc_announce(self, caller: Host, keys: Sequence[int]):
        yield Timeout(self.host.env, self.model.metadata_node_overhead * len(keys))
        name = caller.name
        for key in keys:
            entry = self.holders.setdefault(key, {})
            if name in entry:
                continue
            if len(entry) >= self.max_holders:
                # bounded registry: drop the oldest holder for this key
                entry.pop(next(iter(entry)))
            entry[name] = None
        self.host.fabric.metrics.count("p2p-announce", len(keys))
        return None

    def rpc_locate(self, caller: Host, keys: Sequence[int], fanout: int):
        yield Timeout(self.host.env, self.model.metadata_node_overhead * len(keys))
        me = caller.name
        out: Dict[int, Tuple[str, ...]] = {}
        for key in keys:
            entry = self.holders.get(key)
            if not entry:
                out[key] = ()
                continue
            names = [n for n in entry if n != me]
            if not names:
                out[key] = ()
                continue
            cursor = self._cursor.get(key, 0)
            self._cursor[key] = cursor + 1
            topo = self.topology
            if topo is not None:
                my_rack = topo.rack(me)
                same = [n for n in names if topo.rack(n) == my_rack]
                if same:
                    # rotate within the same-rack holders (load spreading),
                    # then pad with cross-rack ones up to fanout
                    rest = [n for n in names if topo.rack(n) != my_rack]
                    shift = cursor % len(same)
                    ranked = same[shift:] + same[:shift] + rest
                    out[key] = tuple(ranked[:fanout])
                    continue
            shift = cursor % len(names)
            rotated = names[shift:] + names[:shift]
            out[key] = tuple(rotated[:fanout])
        self.host.fabric.metrics.count("p2p-locate", len(keys))
        return rpc.Sized(out, LOCATE_ENTRY_BYTES * len(keys))


class AnnounceDirectory:
    """Client-side handle of the announce directory."""

    name = "announce"

    def __init__(self, service_host: Host, fanout: int, topology=None):
        self.service_host = service_host
        self.fanout = fanout
        #: multi-rack topology for rack-ranking, or None (seed order)
        self.topology = topology

    def locate(self, agent: "PeerAgent", keys: Sequence[int]):
        """One locate RPC for the whole batch; {} if the directory is down."""
        if self.service_host.down:
            return {key: () for key in keys}
        try:
            out = yield from rpc.call(
                agent.host, self.service_host, DIRECTORY_SERVICE, "locate",
                tuple(keys), self.fanout,
            )
        except rpc.ProviderUnavailableError:
            return {key: () for key in keys}
        topo = self.topology
        if topo is not None:
            # re-rank client side: no extra directory traffic, and the
            # server's rotation cursor stays shared across all peers
            me = agent.host.name
            out = {key: rack_ranked(topo, me, names) for key, names in out.items()}
        return out

    def on_cached(self, agent: "PeerAgent", keys: Sequence[int]) -> None:
        """Announce freshly cached keys off the critical path."""
        if not keys or self.service_host.down:
            return

        def announce(keys=tuple(keys)):
            try:
                yield from rpc.call(
                    agent.host, self.service_host, DIRECTORY_SERVICE,
                    "announce", keys,
                )
            except rpc.ProviderUnavailableError:
                pass  # directory (or our own host) died; announcement is lost

        agent.host.spawn(announce(), name="p2p-announce")
