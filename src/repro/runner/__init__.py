"""Parallel sweep-execution engine with a content-keyed result cache.

Every paper figure is a sweep of independent deterministic simulations —
fresh cloud per point, fixed seed. This subsystem describes each point as a
picklable :class:`PointSpec`, fans cache-missing points out over a
``multiprocessing`` pool, replays already-simulated points from a persistent
content-keyed cache, and streams :class:`PointResult` values back in
deterministic order. Sequential (``jobs=1``) and parallel runs of the same
sweep are bit-identical.
"""

from .cache import CODE_VERSION, ResultCache, default_cache_dir, point_key
from .engine import SweepError, SweepRunner, SweepStats
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
    apply_overrides,
    known_profiles,
    profile_calibration,
    register_profile,
    resolve_profile,
)
from .spec import PointResult, PointSpec

__all__ = [
    "BenchProfile",
    "CHURN",
    "CHURN_SMOKE",
    "CODE_VERSION",
    "LINEAGE",
    "LINEAGE_SMOKE",
    "P2P",
    "PAPER",
    "PointResult",
    "PointSpec",
    "QUICK",
    "ResultCache",
    "SCALE",
    "SCALE_SMOKE",
    "SweepError",
    "SweepRunner",
    "SweepStats",
    "active_profile",
    "apply_diffs",
    "apply_overrides",
    "build_point_cloud",
    "default_cache_dir",
    "execute_point",
    "known_kinds",
    "known_profiles",
    "point_key",
    "profile_calibration",
    "register_profile",
    "resolve_profile",
]
