"""Racked datacenter topology: hosts in racks behind a non-blocking core.

The flat simulator assumes every NIC hangs off one non-blocking switch.
This package models hosts grouped into racks instead, with an explicit
oversubscription ratio at the rack uplink.  The fabric model plugs in
*under* :class:`repro.simkit.network.FlowNetwork` (flows traverse the
bottleneck set of links on their path) and *over* the placement / peer
selection policies (which can rank candidates by rack distance).
"""

from .fabric import Topology, build_topology

__all__ = ["Topology", "build_topology"]
