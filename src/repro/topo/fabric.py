"""Topology model: hosts -> racks -> (optional pods) -> core.

A :class:`Topology` is a passive description shared by the flow network
(which turns it into trunk links) and the locality-aware policies (which
only need ``rack()`` / ``scope()``).  It never touches the event loop,
so attaching one with a single rack must leave every simulated timeline
bit-identical to the flat model — guaranteed because trunks only appear
on the paths of cross-rack flows, and one rack has none. The network
reads a host's rack when its NIC is added: place hosts first.

Capacities are bytes/second, like everywhere else in simkit.  The rack
uplink is usually *derived* from the host NIC speed and an
oversubscription ratio via :func:`build_topology`::

    rack_uplink = hosts_per_rack * nic_bandwidth / oversubscription

so ``oversubscription=1`` is a non-blocking fabric and larger values
squeeze the trunk.  ``core_capacity=None`` models a non-blocking core:
only the rack (and pod) uplinks constrain cross-rack traffic.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence

# Scope labels used for per-tier traffic accounting.  ``scope()`` returns
# one of these for any (src, dst) host pair on distinct hosts.
INTRA_RACK = "intra-rack"
CROSS_RACK = "cross-rack"
CROSS_POD = "cross-pod"

SCOPES = (INTRA_RACK, CROSS_RACK, CROSS_POD)


class Topology:
    """Static rack/pod layout plus per-tier trunk capacities.

    Host-to-rack assignment lives in ``rack_of``; hosts that were never
    placed default to rack 0, so infrastructure hosts (manager, NFS
    server) can be left implicit.
    """

    __slots__ = (
        "n_racks",
        "rack_uplink",
        "core_capacity",
        "racks_per_pod",
        "pod_uplink",
        "oversubscription",
        "rack_of",
    )

    def __init__(
        self,
        n_racks: int,
        rack_uplink: float,
        core_capacity: Optional[float] = None,
        racks_per_pod: int = 0,
        pod_uplink: Optional[float] = None,
        oversubscription: float = 1.0,
    ) -> None:
        if n_racks < 1:
            raise ValueError(f"n_racks must be >= 1, got {n_racks}")
        if rack_uplink <= 0:
            raise ValueError(f"rack_uplink must be positive, got {rack_uplink}")
        if core_capacity is not None and core_capacity <= 0:
            raise ValueError(f"core_capacity must be positive, got {core_capacity}")
        if racks_per_pod < 0:
            raise ValueError(f"racks_per_pod must be >= 0, got {racks_per_pod}")
        if racks_per_pod and pod_uplink is None:
            raise ValueError("pod_uplink is required when racks_per_pod is set")
        if pod_uplink is not None and pod_uplink <= 0:
            raise ValueError(f"pod_uplink must be positive, got {pod_uplink}")
        if oversubscription <= 0:
            raise ValueError(
                f"oversubscription must be positive, got {oversubscription}"
            )
        self.n_racks = int(n_racks)
        self.rack_uplink = float(rack_uplink)
        self.core_capacity = None if core_capacity is None else float(core_capacity)
        self.racks_per_pod = int(racks_per_pod)
        self.pod_uplink = None if pod_uplink is None else float(pod_uplink)
        self.oversubscription = float(oversubscription)
        self.rack_of: Dict[str, int] = {}

    # -- layout ---------------------------------------------------------

    @property
    def multi_rack(self) -> bool:
        return self.n_racks > 1

    @property
    def n_pods(self) -> int:
        if not self.racks_per_pod:
            return 1
        return (self.n_racks + self.racks_per_pod - 1) // self.racks_per_pod

    def place(self, host_name: str, rack: int) -> None:
        if not 0 <= rack < self.n_racks:
            raise ValueError(f"rack {rack} out of range [0, {self.n_racks})")
        self.rack_of[host_name] = rack

    def place_blocked(self, host_names: Sequence[str]) -> None:
        """Assign hosts to racks in contiguous blocks (node000.. in rack 0)."""
        if not host_names:
            return
        per_rack = math.ceil(len(host_names) / self.n_racks)
        for i, name in enumerate(host_names):
            self.place(name, min(i // per_rack, self.n_racks - 1))

    def rack(self, host_name: str) -> int:
        return self.rack_of.get(host_name, 0)

    def pod(self, rack: int) -> int:
        if not self.racks_per_pod:
            return 0
        return rack // self.racks_per_pod

    # -- classification -------------------------------------------------

    def scope(self, src_name: str, dst_name: str) -> str:
        """Classify a transfer between two distinct hosts by tier."""
        r1 = self.rack_of.get(src_name, 0)
        r2 = self.rack_of.get(dst_name, 0)
        if r1 == r2:
            return INTRA_RACK
        if self.racks_per_pod and r1 // self.racks_per_pod != r2 // self.racks_per_pod:
            return CROSS_POD
        return CROSS_RACK

    def same_rack(self, a: str, b: str) -> bool:
        return self.rack_of.get(a, 0) == self.rack_of.get(b, 0)

    def describe(self) -> str:
        parts = [f"{self.n_racks} rack(s), uplink {self.rack_uplink / 1e6:.1f} MB/s"]
        if self.racks_per_pod:
            parts.append(
                f"{self.n_pods} pod(s) of {self.racks_per_pod} rack(s), "
                f"pod uplink {self.pod_uplink / 1e6:.1f} MB/s"
            )
        if self.core_capacity is not None:
            parts.append(f"core {self.core_capacity / 1e6:.1f} MB/s")
        else:
            parts.append("non-blocking core")
        parts.append(f"oversubscription {self.oversubscription:g}:1")
        return ", ".join(parts)


def build_topology(
    host_names: Iterable[str],
    n_racks: int,
    nic_bandwidth: float,
    oversubscription: float = 4.0,
    rack_uplink: Optional[float] = None,
    core_capacity: Optional[float] = None,
    racks_per_pod: int = 0,
    pod_uplink: Optional[float] = None,
    infra_hosts: Iterable[str] = (),
) -> Topology:
    """Derive a topology from cluster shape and an oversubscription ratio.

    ``host_names`` are block-assigned to racks; ``infra_hosts`` (manager,
    NFS server, ...) land in rack 0.  The rack uplink defaults to the
    aggregate host bandwidth in a rack divided by ``oversubscription``;
    pass ``rack_uplink`` to pin it explicitly.
    """
    names = list(host_names)
    if rack_uplink is None:
        per_rack = math.ceil(max(1, len(names)) / max(1, n_racks))
        rack_uplink = per_rack * nic_bandwidth / oversubscription
    topo = Topology(
        n_racks=n_racks,
        rack_uplink=rack_uplink,
        core_capacity=core_capacity,
        racks_per_pod=racks_per_pod,
        pod_uplink=pod_uplink,
        oversubscription=oversubscription,
    )
    topo.place_blocked(names)
    for name in infra_hosts:
        topo.place(name, 0)
    return topo
