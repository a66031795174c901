"""Turning a :class:`~repro.faults.plan.FaultPlan` into simulated incidents.

The injector schedules one simkit process per fault event. Crash events call
:meth:`~repro.simkit.host.Host.fail` (RPC registry, NIC flow abort, process
interrupts, service crash hooks) and — for transient faults — revive the
host after its ``duration``. Degradations drive
:meth:`~repro.simkit.disk.Disk.stall` and
:meth:`~repro.simkit.network.FlowNetwork.set_nic_capacity`.

With an empty plan ``arm()`` schedules nothing at all, so an armed-but-empty
injector cannot perturb a timeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..common.errors import SimulationError
from .plan import FaultEvent, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..cloud.cluster import Cloud


class FaultInjector:
    """Applies one fault plan to one cloud, exactly once."""

    def __init__(self, cloud: "Cloud", plan: FaultPlan):
        self.cloud = cloud
        self.plan = plan
        self.armed = False
        #: (simulated time, event) log of incidents actually applied
        self.applied: List[tuple] = []

    # ------------------------------------------------------------------ #
    def arm(self) -> "FaultInjector":
        """Schedule every event of the plan, relative to the current time."""
        if self.armed:
            raise SimulationError("fault injector armed twice")
        self.armed = True
        self._validate()
        env = self.cloud.env
        for event in self.plan.events:  # already sorted by (at, kind, target)
            env.process(
                self._drive(event), name=f"fault-{event.kind}-{event.target}"
            )
        return self

    def _validate(self) -> None:
        hosts = self.cloud.fabric.hosts
        windows: Dict[str, List[tuple]] = {}
        for event in self.plan.events:
            if event.target not in hosts:
                raise SimulationError(f"fault plan targets unknown host {event.target!r}")
            if event.kind in ("provider-crash", "meta-crash"):
                windows.setdefault(event.target, []).append(
                    (event.at, event.at + event.duration if event.duration > 0 else None)
                )
        for target, spans in windows.items():
            spans.sort(key=lambda s: s[0])
            for (_, end), (nxt, _) in zip(spans, spans[1:]):
                if end is None or nxt < end:
                    raise SimulationError(
                        f"overlapping crash windows for host {target!r}"
                    )

    # ------------------------------------------------------------------ #
    def _drive(self, event: FaultEvent):
        cloud = self.cloud
        env = cloud.env
        if event.at > 0:
            yield env.timeout(event.at)
        host = cloud.fabric.hosts[event.target]
        self.applied.append((env.now, event))
        cloud.metrics.count(f"fault-{event.kind}")
        if event.kind in ("provider-crash", "meta-crash"):
            host.fail(cause=event.kind)
            if event.duration > 0:
                yield env.timeout(event.duration)
                host.recover()
        elif event.kind == "disk-stall":
            host.disk.stall(event.factor)
            if event.duration > 0:
                yield env.timeout(event.duration)
                host.disk.unstall()
        elif event.kind == "nic-degrade":
            nic = host.nic
            up, down = nic.up_capacity, nic.down_capacity
            cloud.fabric.network.set_nic_capacity(
                nic, up / event.factor, down / event.factor
            )
            if event.duration > 0:
                yield env.timeout(event.duration)
                cloud.fabric.network.set_nic_capacity(nic, up, down)
        else:  # pragma: no cover — plan validation rejects unknown kinds
            raise SimulationError(f"unhandled fault kind {event.kind!r}")
