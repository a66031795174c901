"""Resilient multideployment: boot a VM fleet while faults are injected.

The figure-4 :func:`~repro.cloud.deployment.deploy` treats any boot failure
as fatal (and rightly so — the paper's runs are failure-free). Under an
active fault plan a VM's boot may legitimately die: its host crashed, or
every replica of a chunk it needs is gone. :func:`resilient_deploy` runs the
same deployment but guards each boot, so the sweep measures *degradation* —
how many instances still booted, and how much slower — instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..cloud import instance
from ..cloud.deployment import DeploymentResult, seed_image
from .plan import FaultPlan


@dataclass
class ResilienceResult(DeploymentResult):
    """Outcome of one multideployment under faults (one resilience point).

    ``init_time`` is fault-free; ``completion_time`` and ``total_traffic``
    cover the boot phase alone, and ``boot_times`` the boots that completed.
    """

    #: vm name -> exception class name, for every boot that did not complete
    failed: Dict[str, str] = field(default_factory=dict)

    @property
    def boots_completed(self) -> int:
        return len(self.boot_times)

    @property
    def boots_failed(self) -> int:
        return len(self.failed)

    @property
    def survival_rate(self) -> float:
        return self.boots_completed / self.n_instances if self.n_instances else 1.0


def resilient_deploy(
    cloud,
    image,
    n_instances: int,
    approach: str = "mirror",
    plan: Optional[FaultPlan] = None,
    idents: Optional[dict] = None,
) -> ResilienceResult:
    """Deploy ``n_instances`` while ``plan`` (if any) injects faults.

    The initialization phase (image seeding, broadcast/qcow2 creation, VM
    construction) runs fault-free; the plan is armed at the start of the
    boot phase, so event times are relative to "all hypervisors launch".
    Each boot runs on its VM's host and :func:`~repro.cloud.instance.guarded`.
    """
    if idents is None:
        idents = seed_image(cloud, image)
    env = cloud.env
    t0 = env.now

    def opening():
        with cloud.fabric.tracer.start(f"deploy:{approach}", "deploy", n_instances=n_instances):
            return (yield from instance.open_fleet(cloud, approach, n_instances, idents))

    vms = cloud.run(env.process(opening(), name=f"deploy-{approach}"))
    result = ResilienceResult(approach, n_instances, env.now - t0, vms=vms)
    if plan:
        cloud.inject_faults(plan)
    t0 = env.now
    traffic0 = cloud.metrics.total_traffic()
    boots = instance.spawn_boots(vms, image, ("fault-trace", approach), result.failed)
    if boots:
        cloud.run(env.all_of(boots))
    result.completion_time = env.now - t0
    result.boot_times = [vm.boot_time for vm in vms if vm.boot_time is not None]
    result.total_traffic = cloud.metrics.total_traffic() - traffic0
    return result
