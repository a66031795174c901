"""Picklable descriptions of sweep points and their structured results.

A :class:`PointSpec` is a pure value: everything needed to reproduce one
measurement point (profile, kind of experiment, approach, scale, seed,
calibration overrides, kind-specific parameters) and nothing else. Executing
the same spec always yields the same simulated timeline, which is what makes
both the multiprocessing fan-out and the content-keyed result cache safe.

A :class:`PointResult` is the plain-data outcome: scalar metrics, small
per-instance series, event counters, and the harness wall time. Both types
round-trip through JSON (the cache format) without losing float precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

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
    profile: str
    approach: str = ""
    n: int = 0
    seed: int = 1
    #: calibration overrides: (("image.chunk_size", 65536), ...)
    overrides: tuple = ()
    #: kind-specific knobs: (("mirror_prefetch", False), ...)
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "overrides", _freeze(self.overrides))
        object.__setattr__(self, "params", _freeze(self.params))

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def label(self) -> str:
        """Short human-readable identity (error messages, progress lines)."""
        bits = [self.kind, self.profile]
        if self.approach:
            bits.append(self.approach)
        if self.n:
            bits.append(f"n={self.n}")
        bits.append(f"seed={self.seed}")
        bits += [f"{k}={v}" for k, v in self.overrides]
        bits += [f"{k}={v}" for k, v in self.params]
        return " ".join(bits)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "profile": self.profile,
            "approach": self.approach,
            "n": self.n,
            "seed": self.seed,
            "overrides": [list(p) for p in self.overrides],
            "params": [list(p) for p in self.params],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "PointSpec":
        return cls(
            kind=data["kind"],
            profile=data["profile"],
            approach=data.get("approach", ""),
            n=int(data.get("n", 0)),
            seed=int(data.get("seed", 1)),
            overrides=data.get("overrides", ()),
            params=data.get("params", ()),
        )


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
    #: harness wall time for this point (informational; not cached identity)
    wall_s: float = 0.0
    #: whether this result was replayed from the result cache
    cached: bool = False

    # ---- conveniences mirroring DeploymentResult / SnapshotCampaignResult --
    @property
    def n_instances(self) -> int:
        return self.spec.n

    @property
    def boot_times(self) -> tuple:
        return self.series.get("boot_times", ())

    @property
    def per_instance(self) -> tuple:
        """Per-instance snapshot durations (Fig. 5 campaigns)."""
        return self.series.get("snapshot_durations", ())

    @property
    def init_time(self) -> float:
        return self.metrics.get("init_time", 0.0)

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

    @property
    def total_bytes_moved(self) -> float:
        return self.metrics.get("total_bytes_moved", 0.0)

    def metric(self, name: str) -> float:
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"point {self.spec.label()!r} has no metric {name!r}; "
                f"available: {', '.join(sorted(self.metrics))}"
            ) from None

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "metrics": dict(self.metrics),
            "series": {k: list(v) for k, v in self.series.items()},
            "counters": dict(self.counters),
            "event_count": self.event_count,
            "wall_s": self.wall_s,
        }

    @classmethod
    def from_json(cls, data: Mapping, cached: bool = False) -> "PointResult":
        return cls(
            spec=PointSpec.from_json(data["spec"]),
            metrics=dict(data.get("metrics", {})),
            series={k: tuple(v) for k, v in data.get("series", {}).items()},
            counters=dict(data.get("counters", {})),
            event_count=int(data.get("event_count", 0)),
            wall_s=float(data.get("wall_s", 0.0)),
            cached=cached,
        )
