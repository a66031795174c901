"""Per-flow reference engines for the cohort engine (test-only).

The production :class:`FlowNetwork` maintains equal-share rates lazily, one
cohort record per link. Its correctness claim is *exact* float equality with
the obvious eager design, which lives here: on every event, recompute
``rate = min(capacity / flows crossing, over the links of the path)`` for
each flow crossing a touched link and push a fresh completion-heap entry
for every flow whose rate changed. That is O(flows) per event — the cost the
cohort engine removed — and works on any path length, so the same reference
covers flat fabrics and trunk-crossing flows.

Both references ride on :class:`EagerNetwork`, the eager per-flow engine:
each flow's rate and generation counter sit in side tables, a rate change
drains the flow at its old rate and pushes a per-flow completion-heap entry
tagged with the new generation, and entries of an earlier generation (or of
a flow that left) are dropped lazily. The subclasses only choose *which
rates* are applied:

* :class:`EagerEqualShareNetwork` — equal share, resolving paths and
  counting link membership on its own (from the topology, not from
  ``Flow.links`` / ``n_flows``), so an engine that forgets a trunk
  disagrees with it. A ``fail_nic`` event is one rebalance over every
  touched link, so event counts match the cohort engine on fault workloads
  as well.
* :class:`MaxMinNetwork` — exact max-min by heap-driven progressive
  filling over every active flow, the yardstick that bounds how far the
  equal-share rule under-estimates throughput (the ``ablation_fairness``
  bench and the max-min property tests).

:func:`eager_fabric` / :func:`maxmin_fabric` make every cloud built inside
the block use one of them.
"""

from contextlib import contextmanager
from heapq import heapify, heappop, heappush

import repro.simkit.host as hostmod
from repro.simkit.network import FlowNetwork
from repro.topo import Topology


def round_robin_topology(hosts, racks, rack_uplink):
    """``racks`` racks with ``hosts`` dealt round-robin (0 racks: no topology),
    so consecutive hosts sit in different racks and most pairs cross trunks."""
    if not racks:
        return None
    topo = Topology(n_racks=racks, rack_uplink=rack_uplink)
    for i, name in enumerate(hosts):
        topo.place(name, i % racks)
    return topo


def trunk_names(topo, src, dst):
    """Names of the trunks a src->dst transfer crosses, in path order."""
    r1, r2 = topo.rack(src), topo.rack(dst)
    if r1 == r2:
        return []
    return [f"rack{r1}:up", f"rack{r2}:down"]


class EagerNetwork(FlowNetwork):
    """The eager per-flow engine; subclasses define :meth:`_new_rates`."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.rate = {}  # flow -> its current rate (0.0 until first rated)
        self.gen = {}   # flow -> generation, bumped on every rate change

    def _new_rates(self, links):
        """``(flow, rate)`` for every flow to re-rate after ``links`` changed."""
        raise NotImplementedError

    def _admit(self, flow):
        self.rate[flow] = 0.0
        self.gen[flow] = 0
        self._rebalance(flow.links)

    def _detach(self, flow):
        del self.rate[flow], self.gen[flow]  # its heap entries go stale

    def _drain(self, flow, now):
        t = flow.t_last
        if t < now:
            rem = flow.remaining - self.rate[flow] * (now - t)
            flow.remaining = rem if rem > 0.0 else 0.0
            flow.t_last = now

    def _rebalance(self, links):
        now = self.env.now
        for flow, rate in self._new_rates(links):
            if rate != self.rate[flow]:
                self._set_rate(flow, rate, now)
        self._arm_sentinel()

    def _set_rate(self, flow, new_rate, now):
        """Advance progress, bump the generation, push the new ETA.

        Callers skip flows whose rate is unchanged — a flow drains linearly,
        so leaving ``(t_last, remaining)`` untouched until the rate actually
        changes is exact (and keeps its completion-heap entry valid).
        """
        old = self.rate[flow]
        if old > 0.0:
            rem = flow.remaining - old * (now - flow.t_last)
            flow.remaining = rem if rem > 0.0 else 0.0
        flow.t_last = now
        self.rate[flow] = new_rate
        self.gen[flow] += 1
        if new_rate > 0.0:
            self._push_seq += 1
            heappush(
                self._completions,
                (now + flow.remaining / new_rate, self._push_seq, self.gen[flow], flow),
            )

    def _next_completion(self):
        heap = self._completions
        while heap:
            ctime, _, gen, flow = heap[0]
            if gen == self.gen.get(flow):
                return ctime, flow
            heappop(heap)
        return None


class EagerEqualShareNetwork(EagerNetwork):
    """Equal-share rates computed eagerly, flow by flow."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._paths = {}

    def _path(self, flow):
        key = (flow.src.name, flow.dst.name)
        path = self._paths.get(key)
        if path is None:
            topo = self.topology
            names = trunk_names(topo, *key) if topo is not None else ()
            path = self._paths[key] = (flow.src.up, flow.dst.down) + tuple(
                self._trunks[name] for name in names
            )
        return path

    def _new_rates(self, links):
        paths = {flow: self._path(flow) for flow in self._flows}
        crossing = {}  # link -> its flows, in start order
        for flow, path in paths.items():
            for link in path:
                crossing.setdefault(link, []).append(flow)
        # union of the flows crossing a touched link: links in the order
        # given (path order), flows in start order — deterministic
        seen = {}
        for link in links:
            for flow in crossing.get(link, ()):
                seen[flow] = None
        return [
            (flow, min(link.capacity / len(crossing[link]) for link in paths[flow]))
            for flow in seen
        ]


class MaxMinNetwork(EagerNetwork):
    """Exact max-min rates, recomputed globally on every event."""

    def _new_rates(self, links):
        return self._progressive_filling()

    def _progressive_filling(self):
        """Exact max-min fairness over all active flows (water filling).

        Heap-driven: each link carries (residual capacity, unfixed flow
        count); the globally tightest link fixes all its unfixed flows at
        its share level, then the other links on their paths are re-pushed.
        Lazy invalidation via per-link version counters. O(F log L) instead
        of repeated O(links x flows) scans.
        """
        flows = self._flows
        if not flows:
            return []
        # Filling record per link: [residual, count, unfixed flows, version,
        # index], indexed in first-crossing order (the heap's tie-breaker).
        records = {}
        order = []
        for flow in flows:
            for link in flow.links:
                rec = records.get(link)
                if rec is None:
                    rec = records[link] = [link.capacity, link.n_flows, {}, 0, len(order)]
                    order.append(rec)
                rec[2][flow] = None
        heap = [(rec[0] / rec[1], rec[4], rec[3]) for rec in order]
        heapify(heap)
        rates = []
        n_unfixed = len(flows)
        while n_unfixed and heap:
            level, idx, ver = heappop(heap)
            rec = order[idx]
            if ver != rec[3] or rec[1] == 0:
                continue  # stale entry
            touched = {}
            for flow in list(rec[2]):
                rates.append((flow, level))
                n_unfixed -= 1
                for link in flow.links:
                    other = records[link]
                    del other[2][flow]
                    other[1] -= 1
                    other[0] -= level
                    if other is not rec:
                        touched[other[4]] = other
            rec[3] += 1  # saturated; invalidate pending entries
            for other in touched.values():
                other[3] += 1
                if other[1] > 0:
                    heappush(heap, (other[0] / other[1], other[4], other[3]))
        return rates


@contextmanager
def _fabric_network(cls):
    prev = hostmod.FlowNetwork
    hostmod.FlowNetwork = cls
    try:
        yield
    finally:
        hostmod.FlowNetwork = prev


def eager_fabric():
    """Builds inside the block get the eager equal-share reference."""
    return _fabric_network(EagerEqualShareNetwork)


def maxmin_fabric():
    """Builds inside the block get the max-min yardstick as their network."""
    return _fabric_network(MaxMinNetwork)


def check_cohort_invariants(net):
    """The cohort engine's own invariants, checkable between any two events.

    * ``n_flows × share ≤ capacity`` on every link (share is the equal split);
    * every flow is a native of exactly one link of its path — a
      minimum-share one — and foreign on all the others;
    * ``natives`` is sorted by remaining bytes, so ``natives[0]`` is the
      link's next completion.
    """
    now = net.env.now
    links = {}
    for flow in net._flows:
        for link in flow.links:
            links[link] = None
        home = flow.home
        assert home in flow.links, f"home {home} is off the flow's path"
        assert home.share == min(link.share for link in flow.links), (
            f"home {home} is not a tightest link of {flow.links}"
        )
        assert flow in home.natives
        for link in flow.links:
            assert (flow in link.foreign) == (link is not home)
    for link in links:
        assert link.n_flows == len(link.natives) + len(link.foreign)
        assert link.share == link.capacity / max(1, link.n_flows)
        assert link.n_flows * link.share <= link.capacity * (1 + 1e-12)
        rems = [net._virtual_rem(f, now) for f in link.natives]
        assert rems == sorted(rems), f"{link}: natives out of order {rems}"
        assert all(f.home is link for f in link.natives)
