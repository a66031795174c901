"""Multi-tenant churn: long-horizon arrivals, placement, lifecycle, SLOs.

The paper's benchmarks measure one-shot campaigns; this package turns the
same machinery into a steady-state system: open-loop request generators
(:mod:`~repro.churn.arrivals`), an admission/placement layer
(:mod:`~repro.churn.scheduler`), per-instance lifecycle processes with
snapshot retirement and periodic garbage collection
(:mod:`~repro.churn.lifecycle`), and p50/p99 service-level metrics
(:mod:`~repro.churn.slo`) — orchestrated by
:class:`~repro.churn.engine.ChurnEngine`.
"""

from .arrivals import (
    ChurnSpec, DeployRequest, RestoreRequest, SnapshotRequest,
    TeardownRequest, generate_trace, trace_crc,
)
from .engine import ChurnEngine, ChurnResult
from .lifecycle import VmRuntime
from .scheduler import POLICIES, LocalityMap, Scheduler
from .slo import SloTracker

__all__ = [
    "POLICIES",
    "ChurnEngine",
    "ChurnResult",
    "ChurnSpec",
    "DeployRequest",
    "LocalityMap",
    "RestoreRequest",
    "Scheduler",
    "SloTracker",
    "SnapshotRequest",
    "TeardownRequest",
    "VmRuntime",
    "generate_trace",
    "trace_crc",
]
