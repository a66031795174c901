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
from typing import Dict, List, Optional

from ..common.errors import InterruptedError_, StorageError
from .plan import FaultPlan


@dataclass
class ResilienceResult:
    """Outcome of one multideployment under faults (one resilience point)."""

    approach: str
    n_instances: int
    #: initialization phase duration (before faults are armed)
    init_time: float
    #: boot duration of every instance that completed
    boot_times: List[float] = field(default_factory=list)
    #: vm name -> exception class name, for every boot that did not complete
    failed: Dict[str, str] = field(default_factory=dict)
    #: wall time until every boot completed or failed, excl. init
    completion_time: float = 0.0
    #: bytes that crossed the network during the boot phase
    total_traffic: int = 0
    vms: list = field(default_factory=list)

    @property
    def boots_completed(self) -> int:
        return len(self.boot_times)

    @property
    def boots_failed(self) -> int:
        return len(self.failed)

    @property
    def survival_rate(self) -> float:
        return self.boots_completed / self.n_instances if self.n_instances else 1.0

    @property
    def avg_boot_time(self) -> float:
        return sum(self.boot_times) / len(self.boot_times) if self.boot_times else 0.0


def _guarded_boot(vm, trace, result: ResilienceResult):
    metrics = vm.host.fabric.metrics
    try:
        yield from vm.boot(trace)
    except (StorageError, InterruptedError_) as exc:
        # The boot died with the fault (host crash kills the spawned boot
        # process; exhausted retries surface as StorageError). Record and
        # keep the rest of the fleet going.
        result.failed[vm.name] = type(exc).__name__
        metrics.count("boot-failed")


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
    """
    from ..cloud.deployment import deploy
    from ..vmsim.boottrace import boot_trace

    base = deploy(cloud, image, n_instances, approach, idents=idents, run_boot=False)
    if plan:
        cloud.inject_faults(plan)

    fabric = cloud.fabric
    env = cloud.env
    t0 = env.now
    traffic0 = cloud.metrics.total_traffic()
    result = ResilienceResult(
        approach=approach,
        n_instances=n_instances,
        init_time=base.init_time,
        vms=base.vms,
    )
    boots = []
    for i, vm in enumerate(base.vms):
        trace = boot_trace(image, cloud.calib.boot, fabric.rng.get("fault-trace", approach, i))
        # host.spawn (not env.process): a crash of the VM's node must kill
        # the in-flight boot, exactly like the hypervisor process dying.
        boots.append(vm.host.spawn(_guarded_boot(vm, trace, result), name=f"boot-{vm.name}"))
    if boots:
        cloud.run(env.all_of(boots))
    result.completion_time = env.now - t0
    result.boot_times = [vm.boot_time for vm in base.vms if vm.boot_time is not None]
    result.total_traffic = cloud.metrics.total_traffic() - traffic0
    return result
