"""Per-flow equal-share reference for the cohort engine (test-only).

The production :class:`FlowNetwork` maintains equal-share rates lazily, one
cohort record per link. Its correctness claim is *exact* float equality with
the obvious eager design, which lives here: on every event, recompute
``rate = min(capacity / flows crossing, over the links of the path)`` for
each flow crossing a touched link and push a fresh completion-heap entry
for every flow whose rate changed. That is O(flows) per event — the cost the
cohort engine removed — and works on any path length, so the same reference
covers flat fabrics and trunk-crossing flows.

The reference rides on the production eager engine (``_set_rate``, per-flow
heap entries), which max-min uses too; it only replaces *which rates* are
applied, and it resolves paths and counts link membership on its own (from
the topology, not from ``Flow.links`` / ``n_flows``), so an engine that
forgets a trunk disagrees with it. A ``fail_nic`` event is one rebalance
over every touched link, so event counts match the cohort engine on fault
workloads as well.
"""

from contextlib import contextmanager

import repro.simkit.host as hostmod
from repro.simkit.network import FlowNetwork
from repro.topo import Topology


def round_robin_topology(
    hosts, racks, rack_uplink, racks_per_pod=0, pod_uplink=None, core_capacity=None
):
    """``racks`` racks with ``hosts`` dealt round-robin (0 racks: no topology),
    so consecutive hosts sit in different racks and most pairs cross trunks."""
    if not racks:
        return None
    topo = Topology(
        n_racks=racks,
        rack_uplink=rack_uplink,
        racks_per_pod=racks_per_pod,
        pod_uplink=pod_uplink if racks_per_pod else None,
        core_capacity=core_capacity,
    )
    for i, name in enumerate(hosts):
        topo.place(name, i % racks)
    return topo


def trunk_names(topo, src, dst):
    """Names of the trunks a src->dst transfer crosses, in path order."""
    r1, r2 = topo.rack(src), topo.rack(dst)
    if r1 == r2:
        return []
    names = [f"rack{r1}:up"]
    p1, p2 = topo.pod(r1), topo.pod(r2)
    finite_core = topo.core_capacity is not None
    if p1 != p2:
        names.append(f"pod{p1}:up")
        if finite_core:
            names.append("core")
        names.append(f"pod{p2}:down")
    elif finite_core and not topo.racks_per_pod:
        names.append("core")  # no pod tier: cross-rack goes through the core
    names.append(f"rack{r2}:down")
    return names


class EagerEqualShareNetwork(FlowNetwork):
    """Equal-share fairness computed eagerly, flow by flow."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        # max-min requests stay what they are (already eager); equal-share
        # ones are switched from the cohort engine to the eager one
        self._equal_share = not self._eager
        self._eager = True
        self._paths = {}

    def _path(self, flow):
        key = (flow.src.name, flow.dst.name)
        path = self._paths.get(key)
        if path is None:
            topo = self.topology
            names = trunk_names(topo, *key) if topo is not None else ()
            path = self._paths[key] = (flow.src.up, flow.dst.down) + tuple(
                self.trunk(name) for name in names
            )
        return path

    def _rebalance(self, links):
        if not self._equal_share:
            return super()._rebalance(links)
        now = self.env.now
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
        for flow in seen:
            rate = min(link.capacity / len(crossing[link]) for link in paths[flow])
            if rate != flow.rate:
                self._set_rate(flow, rate, now)
        self._arm_sentinel()


@contextmanager
def eager_fabric():
    """Builds inside the block get the eager reference as their network."""
    prev = hostmod.FlowNetwork
    hostmod.FlowNetwork = EagerEqualShareNetwork
    try:
        yield
    finally:
        hostmod.FlowNetwork = prev


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
