"""Parallel sweep-execution engine.

Every paper figure is a sweep of independent deterministic simulations —
fresh cloud per point, fixed seed. This subsystem describes each point as a
picklable :class:`PointSpec`, simulates every point of a sweep over a
``multiprocessing`` pool, and returns :class:`PointResult` values in input
order. Sequential (``jobs=1``) and parallel runs of the same sweep are
bit-identical.
"""

from .engine import SweepError, SweepRunner
from .points import apply_diffs, build_point_cloud, execute_point, known_kinds
from .profiles import (
    CHURN,
    CHURN_SMOKE,
    LINEAGE,
    LINEAGE_SMOKE,
    P2P,
    PAPER,
    QUICK,
    SCALE,
    SCALE_SMOKE,
    BenchProfile,
    active_profile,
    known_profiles,
    resolve_profile,
)
from .spec import PointResult, PointSpec

__all__ = [
    "BenchProfile",
    "CHURN",
    "CHURN_SMOKE",
    "LINEAGE",
    "LINEAGE_SMOKE",
    "P2P",
    "PAPER",
    "PointResult",
    "PointSpec",
    "QUICK",
    "SCALE",
    "SCALE_SMOKE",
    "SweepError",
    "SweepRunner",
    "active_profile",
    "apply_diffs",
    "build_point_cloud",
    "execute_point",
    "known_kinds",
    "known_profiles",
    "resolve_profile",
]
