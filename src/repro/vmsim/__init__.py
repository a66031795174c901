"""VM life-cycle simulation: images, boot traces, hypervisor, workloads."""

from .backends import LocalRawBackend, MirrorBackend, Qcow2PvfsBackend, SnapshotResult
from .bonnie import BonnieBenchmark, BonnieResults
from .boottrace import BootOp, Trace, boot_trace, trace_stats
from .hypervisor import VMInstance
from .image import HotRegion, VmImage, make_image
from .montecarlo import MonteCarloConfig, MonteCarloWorker
from .workloads import cpu_workload, log_append_workload, read_your_writes_workload

__all__ = [
    "BonnieBenchmark",
    "BonnieResults",
    "BootOp",
    "HotRegion",
    "LocalRawBackend",
    "MirrorBackend",
    "MonteCarloConfig",
    "MonteCarloWorker",
    "Qcow2PvfsBackend",
    "SnapshotResult",
    "Trace",
    "VMInstance",
    "VmImage",
    "boot_trace",
    "cpu_workload",
    "log_append_workload",
    "make_image",
    "read_your_writes_workload",
    "trace_stats",
]
