"""Placement and admission control for the churn engine.

The scheduler owns the cluster's capacity model — every compute node offers
``slots_per_node`` instance slots — and decides, for each
:class:`~repro.churn.arrivals.DeployRequest`, *where* it runs (placement
policy) and *whether* it runs at all (admission control: a bounded FIFO
pending queue; requests arriving with the queue full are rejected and
counted, the open-loop analogue of a 503).

Placement policies are plain functions registered in :data:`POLICIES`; all
of them are strictly deterministic (ties break on the lowest node index):

* ``least-loaded`` — the free node with the fewest resident instances
  (spreads load; indifferent to data locality);
* ``locality`` — prefer free nodes whose *peer chunk caches* already hold
  the tenant's image chunks (see :mod:`repro.p2p`), falling back to
  recently-hosted-tenant affinity when the cloud runs without the p2p
  overlay, and to least-loaded among equals. This is the policy that turns
  the cooperative-exchange overlay into a placement signal: booting where
  the image's chunks already sit short-circuits most remote fetches.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Tuple

from .arrivals import DeployRequest


class LocalityMap:
    """The locality policy's scoring context.

    ``caches`` maps node name -> :class:`~repro.p2p.cache.PeerChunkCache`
    (``None`` when the cloud runs without p2p); ``tenant_keys`` maps tenant
    -> the frozen set of BlobSeer chunk keys of that tenant's base image.
    Affinity (which tenants a node hosted recently) is tracked either way
    and used as the fallback signal.
    """

    def __init__(
        self,
        node_names: List[str],
        caches: Optional[Dict[str, object]] = None,
        tenant_keys: Optional[Dict[int, FrozenSet[int]]] = None,
    ):
        self.node_names = node_names
        self.caches = caches
        self.tenant_keys = tenant_keys if tenant_keys is not None else {}
        #: node index -> set of tenants whose instances ran there
        self.affinity: Dict[int, set] = {}

    def note_hosted(self, node: int, tenant: int) -> None:
        self.affinity.setdefault(node, set()).add(tenant)

    def score(self, node: int, tenant: int) -> int:
        """Higher is better; 0 means no locality information."""
        score = 0
        if self.caches is not None:
            cache = self.caches.get(self.node_names[node])
            keys = self.tenant_keys.get(tenant)
            if cache is not None and keys:
                score = sum(1 for k in keys if k in cache)
        if tenant in self.affinity.get(node, ()):
            score += 1  # a warm local mirror/page cache beats a cold node
        return score


# --------------------------------------------------------------------------- #
# policies: (scheduler, request) -> node index among the free nodes
# --------------------------------------------------------------------------- #
def _free_nodes(sched: "Scheduler") -> List[int]:
    return [
        i for i, load in enumerate(sched.loads) if load < sched.slots_per_node
    ]


def _least_loaded(sched: "Scheduler", req: DeployRequest) -> Optional[int]:
    free = _free_nodes(sched)
    if not free:
        return None
    return min(free, key=lambda i: (sched.loads[i], i))


def _locality(sched: "Scheduler", req: DeployRequest) -> Optional[int]:
    free = _free_nodes(sched)
    if not free:
        return None
    loc = sched.locality
    if loc is None:
        return min(free, key=lambda i: (sched.loads[i], i))
    # best locality score first, then least loaded, then lowest index
    return min(free, key=lambda i: (-loc.score(i, req.tenant), sched.loads[i], i))


POLICIES: Dict[str, Callable[["Scheduler", DeployRequest], Optional[int]]] = {
    "least-loaded": _least_loaded,
    "locality": _locality,
}


class Scheduler:
    """Bounded-queue admission control + pluggable placement over N nodes."""

    def __init__(
        self,
        n_nodes: int,
        policy: str,
        slots_per_node: int,
        max_queue: int,
        locality: Optional[LocalityMap] = None,
    ):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown placement policy {policy!r}; "
                f"pick one of {tuple(sorted(POLICIES))}"
            )
        self.policy_name = policy
        self._policy = POLICIES[policy]
        self.slots_per_node = slots_per_node
        self.max_queue = max_queue
        self.locality = locality
        self.loads: List[int] = [0] * n_nodes
        self.queue: Deque[DeployRequest] = deque()
        self.rejected = 0
        self.admitted = 0

    # ------------------------------------------------------------------ #
    @property
    def busy_slots(self) -> int:
        return sum(self.loads)

    @property
    def total_slots(self) -> int:
        return len(self.loads) * self.slots_per_node

    # ------------------------------------------------------------------ #
    def submit(self, req: DeployRequest) -> Tuple[str, Optional[int]]:
        """Admit a deploy: ``("placed", node)``, ``("queued", None)`` or
        ``("rejected", None)``."""
        if not self.queue:  # FIFO: nobody may overtake a waiting request
            node = self._policy(self, req)
            if node is not None:
                self.loads[node] += 1
                self.admitted += 1
                return "placed", node
        if len(self.queue) >= self.max_queue:
            self.rejected += 1
            return "rejected", None
        self.queue.append(req)
        self.admitted += 1
        return "queued", None

    def cancel(self, req_id: int) -> bool:
        """Drop a still-queued deploy (its teardown arrived first)."""
        for req in self.queue:
            if req.req_id == req_id:
                self.queue.remove(req)
                return True
        return False

    def release(self, node: int) -> List[Tuple[DeployRequest, int]]:
        """Free one slot on ``node``; drain the queue onto free capacity.

        Returns the newly placed ``(request, node)`` pairs, in FIFO order.
        """
        if self.loads[node] <= 0:
            raise ValueError(f"release on idle node {node}")
        self.loads[node] -= 1
        placed: List[Tuple[DeployRequest, int]] = []
        while self.queue:
            nxt = self.queue[0]
            where = self._policy(self, nxt)
            if where is None:
                break
            self.queue.popleft()
            self.loads[where] += 1
            placed.append((nxt, where))
        return placed
