"""The provider manager: chunk-to-provider placement.

BlobSeer's provider manager decides, for every chunk written, which data
providers receive its replicas. The goal is even load distribution so that
striping actually spreads I/O (§3.1.3). Three strategies are provided:

``round-robin``
    deterministic cycling through the provider list (what the eval uses:
    uniform striping, replication 1);
``random``
    uniform random placement (models hash-based placement);
``least-loaded``
    pick the providers with the fewest allocated bytes (greedy balancing,
    useful for the heterogeneous-diff ablation);
``rack-diverse``
    spread each chunk's replicas across distinct racks (requires a
    ``rack_of`` map from the attached topology). With replication >= the
    number of racks holding providers, every rack gets a replica, so a
    rack-local read path exists for every reader while a whole-rack
    failure still leaves live copies elsewhere.

Replication ``r`` returns ``r`` distinct providers per chunk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..calibration import ServiceModel
from ..common.errors import StorageError
from ..simkit.host import Host


class PlacementPolicy:
    """Pure placement state machine (testable without the simulator)."""

    def __init__(
        self,
        providers: Sequence[str],
        strategy: str = "round-robin",
        rng: Optional[np.random.Generator] = None,
        replication_factor: int = 1,
        rack_of: Optional[Dict[str, int]] = None,
    ):
        if not providers:
            raise StorageError("no data providers")
        if strategy not in ("round-robin", "random", "least-loaded", "rack-diverse"):
            raise StorageError(f"unknown placement strategy {strategy!r}")
        if replication_factor < 1 or replication_factor > len(providers):
            raise StorageError(
                f"replication factor {replication_factor} impossible with "
                f"{len(providers)} providers"
            )
        self.providers = list(providers)
        self.strategy = strategy
        self.rng = rng if rng is not None else np.random.default_rng(0)
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
        provider manager knows are down); empty in every failure-free run.
        """
        if replication is None:
            replication = self.replication_factor
        if exclude:
            return self._allocate_excluding(n_chunks, chunk_size, replication, exclude)
        if replication < 1 or replication > len(self.providers):
            raise StorageError(
                f"replication {replication} impossible with {len(self.providers)} providers"
            )
        out: List[Tuple[str, ...]] = []
        if self.strategy == "round-robin" and replication == 1:
            # Hot case (the eval uploads stripe thousands of chunks with
            # replication 1): same output as the generic loop below.
            providers = self.providers
            n = len(providers)
            cursor = self._cursor
            load = self.load_bytes
            for _ in range(n_chunks):
                p = providers[cursor]
                cursor += 1
                if cursor == n:
                    cursor = 0
                load[p] += chunk_size
                out.append((p,))
            self._cursor = cursor
            return out
        for _ in range(n_chunks):
            if self.strategy == "round-robin":
                picks = [
                    self.providers[(self._cursor + r) % len(self.providers)]
                    for r in range(replication)
                ]
                self._cursor = (self._cursor + 1) % len(self.providers)
            elif self.strategy == "random":
                idx = self.rng.choice(len(self.providers), size=replication, replace=False)
                picks = [self.providers[int(i)] for i in idx]
            elif self.strategy == "rack-diverse":
                picks = self._rack_diverse_picks(replication)
            else:  # least-loaded
                ranked = sorted(self.providers, key=lambda p: (self.load_bytes[p], p))
                picks = ranked[:replication]
            for p in picks:
                self.load_bytes[p] += chunk_size
            out.append(tuple(picks))
        return out

    def _rack_diverse_picks(
        self, replication: int, allowed: Optional[Set[str]] = None
    ) -> List[str]:
        """One chunk's replica set: one provider per rack, racks rotating.

        The starting rack rotates per chunk (so replica-0 load spreads over
        all racks) and each rack keeps its own provider cursor (so load
        spreads within the rack). Replication beyond the number of racks —
        or racks emptied by ``allowed`` filtering — falls back to cycling
        the flat provider list for the remainder.
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
                if allowed is not None and p not in allowed:
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
                if p in chosen or (allowed is not None and p not in allowed):
                    continue
                picks.append(p)
                chosen.add(p)
            self._cursor = cur % n
        return picks

    def _allocate_excluding(
        self,
        n_chunks: int,
        chunk_size: int,
        replication: int,
        exclude: Sequence[str],
    ) -> List[Tuple[str, ...]]:
        """Slow path used only when some providers are known to be down."""
        excluded = set(exclude)
        eligible = [p for p in self.providers if p not in excluded]
        if replication < 1 or replication > len(eligible):
            raise StorageError(
                f"replication {replication} impossible with {len(eligible)} "
                f"live providers ({len(excluded)} excluded)"
            )
        out: List[Tuple[str, ...]] = []
        for _ in range(n_chunks):
            if self.strategy == "round-robin":
                start = self._cursor % len(eligible)
                picks = [eligible[(start + r) % len(eligible)] for r in range(replication)]
                self._cursor = (self._cursor + 1) % len(self.providers)
            elif self.strategy == "random":
                idx = self.rng.choice(len(eligible), size=replication, replace=False)
                picks = [eligible[int(i)] for i in idx]
            elif self.strategy == "rack-diverse":
                picks = self._rack_diverse_picks(replication, allowed=set(eligible))
            else:  # least-loaded
                ranked = sorted(eligible, key=lambda p: (self.load_bytes[p], p))
                picks = ranked[:replication]
            for p in picks:
                self.load_bytes[p] += chunk_size
            out.append(tuple(picks))
        return out

    def imbalance(self) -> float:
        """max/mean allocated bytes (1.0 = perfectly balanced)."""
        loads = list(self.load_bytes.values())
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean > 0 else 1.0


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
