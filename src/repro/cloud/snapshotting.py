"""Multisnapshotting runners (§5.3, Fig. 5).

Concurrently persist the local modifications of N running VM instances:

* ``mirror`` — broadcast ``CLONE`` to every mirroring module, then
  ``COMMIT`` (exactly the paper's global-snapshot protocol, §3.2);
  subsequent campaigns only need the ``COMMIT``;
* ``qcow2-pvfs`` — concurrently copy each node's qcow2 file back to PVFS.

Both campaigns are synchronized to start at the same simulated instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..vmsim.backends import SnapshotResult
from .cluster import Cloud


@dataclass
class SnapshotCampaignResult:
    """Outcome of snapshotting a whole deployment (one point of Fig. 5)."""

    approach: str
    n_instances: int
    per_instance: List[SnapshotResult] = field(default_factory=list)
    #: wall time until the slowest instance's snapshot finished (Fig. 5b)
    completion_time: float = 0.0
    #: bytes physically persisted across all instances
    total_bytes_moved: int = 0

    @property
    def avg_time(self) -> float:
        """Average per-instance snapshot duration (Fig. 5a)."""
        if not self.per_instance:
            return 0.0
        return sum(s.duration for s in self.per_instance) / len(self.per_instance)


def snapshot_all(cloud: Cloud, vms: Sequence, approach: str) -> SnapshotCampaignResult:
    """Snapshot every VM's backend concurrently; returns campaign metrics."""
    result = SnapshotCampaignResult(approach=approach, n_instances=len(vms))
    t_start = cloud.env.now
    tracer = cloud.fabric.tracer

    def one(vm):
        with tracer.start(f"snapshot:{vm.name}", "snapshot", host=vm.host.name):
            return (yield from vm.backend.snapshot())

    def master():
        with tracer.start(f"snapshot-campaign:{approach}", "snapshot", n_instances=len(vms)):
            procs = [
                cloud.env.process(one(vm), name=f"snap-{vm.name}") for vm in vms
            ]
            snaps = yield cloud.env.all_of(procs)
            result.per_instance = list(snaps)

    cloud.run(cloud.env.process(master(), name=f"snapshot-{approach}"))
    result.completion_time = cloud.env.now - t_start
    result.total_bytes_moved = sum(s.bytes_moved for s in result.per_instance)
    return result
