"""Deterministic fault injection and the recovery mechanisms it exercises.

The paper's design principle 3 (§3.1) notes the striped repository supports
chunk replication, but the evaluation runs failure-free. This subsystem adds
the failure story:

* :mod:`repro.faults.plan` — declarative, seed-reproducible schedules of
  injectable events (provider/metadata-host crash + restart, disk stall,
  NIC degradation);
* :mod:`repro.faults.injector` — applies a plan to a built cloud on the
  simkit event loop;
* :mod:`repro.faults.policy` — the client-side :class:`RetryPolicy`
  (per-RPC timeouts, bounded exponential backoff, replica failover);
* :mod:`repro.faults.scenario` — :func:`resilient_deploy`, a
  multideployment that degrades instead of crashing when boots fail.

An empty plan schedules no events. The storage client has one RPC path with
or without a policy: a :class:`RetryPolicy` only tunes its failover loop, so
a fault-free run takes the same timeline armed or not.
"""

from .injector import FaultInjector
from .plan import KINDS, FaultEvent, FaultPlan
from .policy import RetryPolicy
from .scenario import ResilienceResult, resilient_deploy

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "KINDS",
    "ResilienceResult",
    "RetryPolicy",
    "resilient_deploy",
]
