"""Topology model: hosts -> racks -> a non-blocking core.

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
squeeze the trunk.  The core is non-blocking: only the rack uplinks
constrain cross-rack traffic.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence

# Scope labels used for per-tier traffic accounting.  ``scope()`` returns
# one of these for any (src, dst) host pair on distinct hosts.
INTRA_RACK = "intra-rack"
CROSS_RACK = "cross-rack"


class Topology:
    """Static rack layout plus the rack trunk capacity.

    Host-to-rack assignment lives in ``rack_of``; hosts that were never
    placed default to rack 0, so infrastructure hosts (manager, NFS
    server) can be left implicit.
    """

    __slots__ = ("n_racks", "rack_uplink", "oversubscription", "rack_of")

    def __init__(
        self, n_racks: int, rack_uplink: float, oversubscription: float = 1.0
    ) -> None:
        if n_racks < 1:
            raise ValueError(f"n_racks must be >= 1, got {n_racks}")
        if rack_uplink <= 0:
            raise ValueError(f"rack_uplink must be positive, got {rack_uplink}")
        _check_oversubscription(oversubscription)
        self.n_racks = int(n_racks)
        self.rack_uplink = float(rack_uplink)
        self.oversubscription = float(oversubscription)
        self.rack_of: Dict[str, int] = {}

    # -- layout ---------------------------------------------------------

    @property
    def multi_rack(self) -> bool:
        return self.n_racks > 1

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

    # -- classification -------------------------------------------------

    def scope(self, src_name: str, dst_name: str) -> str:
        """Classify a transfer between two distinct hosts by tier."""
        if self.rack_of.get(src_name, 0) == self.rack_of.get(dst_name, 0):
            return INTRA_RACK
        return CROSS_RACK

    def same_rack(self, a: str, b: str) -> bool:
        return self.rack_of.get(a, 0) == self.rack_of.get(b, 0)


def _check_oversubscription(oversubscription: float) -> None:
    if not oversubscription > 0:
        raise ValueError(f"oversubscription must be positive, got {oversubscription}")


def build_topology(
    host_names: Iterable[str],
    n_racks: int,
    nic_bandwidth: float,
    oversubscription: float = 4.0,
    rack_uplink: Optional[float] = None,
    infra_hosts: Iterable[str] = (),
) -> Topology:
    """Derive a topology from cluster shape and an oversubscription ratio.

    ``host_names`` are block-assigned to racks; ``infra_hosts`` (manager,
    NFS server, ...) land in rack 0.  The rack uplink defaults to the
    aggregate host bandwidth in a rack divided by ``oversubscription``;
    pass ``rack_uplink`` to pin it explicitly.
    """
    _check_oversubscription(oversubscription)
    names = list(host_names)
    if rack_uplink is None:
        per_rack = math.ceil(max(1, len(names)) / max(1, n_racks))
        rack_uplink = per_rack * nic_bandwidth / oversubscription
    topo = Topology(
        n_racks=n_racks,
        rack_uplink=rack_uplink,
        oversubscription=oversubscription,
    )
    topo.place_blocked(names)
    for name in infra_hosts:
        topo.place(name, 0)
    return topo
