"""Picklable descriptions of sweep points and their structured results.

A :class:`PointSpec` is a pure value: everything needed to reproduce one
measurement point (profile with its calibration, kind of experiment,
approach, scale, seed, kind-specific parameters) and nothing else. It holds
its profile by value, so any process can execute it, and the same spec
always yields the same simulated timeline, which is what makes the
multiprocessing fan-out safe.

A :class:`PointResult` is the plain-data outcome: scalar metrics, small
per-instance series, event counters, and the harness wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

from .profiles import BenchProfile


def _freeze(pairs: Any) -> tuple:
    """Canonicalize a dict/iterable of (key, value) pairs to a sorted tuple.

    A key given twice is an error: neither value would be the obvious one.
    """
    if pairs is None:
        return ()
    if isinstance(pairs, Mapping):
        items = pairs.items()
    else:
        items = [tuple(p) for p in pairs]
    frozen = tuple(sorted((str(k), v) for k, v in items))
    keys = [k for k, _ in frozen]
    if len(set(keys)) < len(keys):
        raise ValueError(f"duplicate keys among {', '.join(keys)}")
    return frozen


@dataclass(frozen=True)
class PointSpec:
    """One measurement point of a sweep, as a pure picklable value."""

    kind: str
    profile: BenchProfile
    approach: str = ""
    n: int = 0
    seed: int = 1
    #: kind-specific knobs: (("mirror_prefetch", False), ...)
    params: tuple = ()

    def __post_init__(self):
        if not isinstance(self.profile, BenchProfile):
            raise TypeError(f"PointSpec.profile must be a BenchProfile, got {self.profile!r}")
        object.__setattr__(self, "params", _freeze(self.params))

    def param(self, name: str) -> Any:
        """The value the spec sets for param ``name``; None when it sets none
        (the param's reader then applies its own default)."""
        for key, value in self.params:
            if key == name:
                return value
        return None

    def label(self) -> str:
        """Short human-readable identity (error messages, progress lines)."""
        bits = [self.kind, self.profile.name]
        if self.approach:
            bits.append(self.approach)
        if self.n:
            bits.append(f"n={self.n}")
        bits.append(f"seed={self.seed}")
        bits += [f"{k}={v}" for k, v in self.params]
        return " ".join(bits)


@dataclass(frozen=True)
class PointResult:
    """Structured outcome of executing one :class:`PointSpec`."""

    spec: PointSpec
    #: scalar metrics, e.g. completion_time, total_traffic, block_write_kbps
    metrics: Dict[str, float] = field(default_factory=dict)
    #: small per-instance series, e.g. boot_times, snapshot_durations
    series: Dict[str, tuple] = field(default_factory=dict)
    #: simulator event counters (deterministic; used by the ablations)
    counters: Dict[str, int] = field(default_factory=dict)
    #: total events the simulation processed (deterministic)
    event_count: int = 0
    #: harness wall time for this point (informational)
    wall_s: float = 0.0

    # ---- conveniences mirroring DeploymentResult / SnapshotCampaignResult --
    @property
    def boot_times(self) -> tuple:
        return self.series.get("boot_times", ())

    @property
    def per_instance(self) -> tuple:
        """Per-instance snapshot durations (Fig. 5 campaigns)."""
        return self.series.get("snapshot_durations", ())

    @property
    def avg_boot_time(self) -> float:
        return self.metrics.get("avg_boot_time", 0.0)

    @property
    def completion_time(self) -> float:
        return self.metrics.get("completion_time", 0.0)

    @property
    def total_traffic(self) -> float:
        return self.metrics.get("total_traffic", 0.0)

    @property
    def avg_time(self) -> float:
        return self.metrics.get("avg_time", 0.0)
