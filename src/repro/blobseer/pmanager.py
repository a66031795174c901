"""The provider manager: chunk-to-provider placement.

BlobSeer's provider manager decides, for every chunk written, which data
providers receive its replicas. The goal is even load distribution so that
striping actually spreads I/O (§3.1.3). Two strategies are provided:

``round-robin``
    deterministic cycling through the provider list (what the eval uses:
    uniform striping, replication 1);
``rack-diverse``
    spread each chunk's replicas across distinct racks (requires a
    ``rack_of`` map from the attached topology). With replication >= the
    number of racks holding providers, every rack gets a replica, so a
    rack-local read path exists for every reader while a whole-rack
    failure still leaves live copies elsewhere.

Replication ``r`` returns ``r`` distinct providers per chunk, all of them
*eligible*: not among the providers the manager knows are down.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..calibration import ServiceModel
from ..common.errors import StorageError
from ..simkit.host import Host

#: the placement strategies :class:`PlacementPolicy` accepts
STRATEGIES = ("round-robin", "rack-diverse")


class PlacementPolicy:
    """Pure placement state machine (testable without the simulator)."""

    def __init__(
        self,
        providers: Sequence[str],
        strategy: str = "round-robin",
        replication_factor: int = 1,
        rack_of: Optional[Dict[str, int]] = None,
    ):
        if not providers:
            raise StorageError("no data providers")
        if strategy not in STRATEGIES:
            raise StorageError(f"unknown placement strategy {strategy!r}")
        if replication_factor < 1 or replication_factor > len(providers):
            raise StorageError(
                f"replication factor {replication_factor} impossible with "
                f"{len(providers)} providers"
            )
        self.providers = list(providers)
        self.strategy = strategy
        #: default replica count when allocate() is called without one
        self.replication_factor = replication_factor
        self._cursor = 0
        self.load_bytes = {name: 0 for name in self.providers}
        if strategy == "rack-diverse":
            if rack_of is None:
                raise StorageError(
                    "rack-diverse placement requires a rack_of map (attach a topology)"
                )
            groups: Dict[int, List[str]] = {}
            for p in self.providers:
                groups.setdefault(rack_of.get(p, 0), []).append(p)
            #: rack ids ascending; within a rack, provider list order is kept
            self._racks = sorted(groups)
            self._rack_groups = {r: groups[r] for r in self._racks}
            self._rack_cursors = {r: 0 for r in self._racks}
            self._rack_start = 0

    def allocate(
        self,
        n_chunks: int,
        chunk_size: int,
        replication: Optional[int] = None,
        exclude: Sequence[str] = (),
    ) -> List[Tuple[str, ...]]:
        """Pick ``replication`` distinct providers for each of ``n_chunks`` chunks.

        ``exclude`` removes providers from consideration (crashed hosts the
        provider manager knows are down); empty in every failure-free run,
        where every provider is eligible. Round-robin takes ``replication``
        consecutive eligible providers from the cursor, which advances by
        one per chunk over the whole provider list.
        """
        if replication is None:
            replication = self.replication_factor
        excluded = set(exclude)
        eligible = [p for p in self.providers if p not in excluded]
        m = len(eligible)
        if replication < 1 or replication > m:
            raise StorageError(
                f"replication {replication} impossible with {m} "
                f"live providers ({len(excluded)} excluded)"
            )
        ring = tuple(eligible + eligible)  # every round-robin pick is one slice
        n = len(self.providers)
        round_robin = self.strategy == "round-robin"
        load = self.load_bytes
        out: List[Tuple[str, ...]] = []
        for _ in range(n_chunks):
            if round_robin:
                start = self._cursor % m
                picks = ring[start:start + replication]
                self._cursor = (self._cursor + 1) % n
            else:
                picks = self._rack_diverse_picks(replication, excluded)
            for p in picks:
                load[p] += chunk_size
            out.append(picks)
        return out

    def _rack_diverse_picks(
        self, replication: int, excluded: Set[str]
    ) -> Tuple[str, ...]:
        """One chunk's replica set: one provider per rack, racks rotating.

        The starting rack rotates per chunk (so replica-0 load spreads over
        all racks) and each rack keeps its own provider cursor (so load
        spreads within the rack). Replication beyond the number of racks —
        or racks whose providers are all ``excluded`` — falls back to
        cycling the flat provider list for the remainder.
        """
        racks = self._racks
        n_racks = len(racks)
        picks: List[str] = []
        chosen: Set[str] = set()
        start = self._rack_start
        for i in range(n_racks):
            if len(picks) == replication:
                break
            r = racks[(start + i) % n_racks]
            group = self._rack_groups[r]
            n = len(group)
            cur = self._rack_cursors[r]
            for j in range(n):
                p = group[(cur + j) % n]
                if p in excluded:
                    continue
                picks.append(p)
                chosen.add(p)
                self._rack_cursors[r] = (cur + j + 1) % n
                break
        self._rack_start = (start + 1) % n_racks
        if len(picks) < replication:
            providers = self.providers
            n = len(providers)
            cur = self._cursor
            scanned = 0
            while len(picks) < replication and scanned < n:
                p = providers[cur % n]
                cur += 1
                scanned += 1
                if p in chosen or p in excluded:
                    continue
                picks.append(p)
                chosen.add(p)
            self._cursor = cur % n
        return tuple(picks)


class ProviderManagerService:
    """RPC wrapper around a :class:`PlacementPolicy` (one per deployment)."""

    def __init__(self, host: Host, policy: PlacementPolicy, model: ServiceModel):
        self.host = host
        self.policy = policy
        self.model = model

    def rpc_allocate(self, caller: Host, n_chunks: int, chunk_size: int, replication: int):
        yield self.host.env.timeout(self.model.publish_overhead / 4)
        return self.policy.allocate(
            n_chunks, chunk_size, replication, exclude=self._down_providers()
        )

    def _down_providers(self) -> Tuple[str, ...]:
        """Providers the manager currently believes dead (crash-injection only)."""
        hosts = self.host.fabric.hosts
        return tuple(
            name for name in self.policy.providers if name in hosts and hosts[name].down
        )
