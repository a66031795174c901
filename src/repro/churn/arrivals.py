"""Open-loop multi-tenant workload generation for the churn engine.

A cloud under real load is not a one-shot campaign: tenants keep asking for
instances, snapshot some of them mid-life, and tear them down again. This
module turns a :class:`ChurnSpec` plus one named RNG stream into a fully
deterministic *request trace* — every :class:`DeployRequest`,
:class:`SnapshotRequest` and :class:`TeardownRequest` with its absolute
arrival time — before the simulation starts. Pre-materializing the trace is
what makes churn runs seed-reproducible end to end: the stream of requests
is a pure function of ``(spec, rng)``, independent of how the cluster
happens to respond to it (open-loop arrivals, not closed-loop).

Three arrival shapes, per the standard cloud-trace literature:

* ``poisson`` — memoryless arrivals at a constant mean rate;
* ``diurnal`` — a sinusoidally modulated rate (day/night cycle, period
  :data:`DIURNAL_PERIOD`), generated by thinning a Poisson process at the
  peak rate;
* ``bursty`` — an on/off modulated rate (flash crowds of
  :data:`BURST_FACTOR` × the rate over a quiet baseline), also generated by
  thinning.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

ARRIVAL_KINDS = ("poisson", "diurnal", "bursty")

#: diurnal modulation: cycle length (simulated s) and relative amplitude
DIURNAL_PERIOD = 400.0
DIURNAL_AMPLITUDE = 0.8
#: bursty modulation: peak rate over the mean, burst and calm phase lengths
BURST_FACTOR = 6.0
BURST_LEN = 15.0
CALM_LEN = 90.0


@dataclass(frozen=True)
class DeployRequest:
    """A tenant asks for one VM instance of its image."""

    req_id: int
    at: float
    tenant: int


@dataclass(frozen=True)
class SnapshotRequest:
    """Snapshot the instance started by deploy ``target`` (if still alive)."""

    req_id: int
    at: float
    tenant: int
    target: int


@dataclass(frozen=True)
class TeardownRequest:
    """Terminate the instance started by deploy ``target``."""

    req_id: int
    at: float
    tenant: int
    target: int


@dataclass(frozen=True)
class RestoreRequest:
    """Boot a fresh instance from the newest snapshot deploy ``target`` left.

    Restores arrive *after* the target's teardown (a tenant going back to a
    saved state), so unless the run retains snapshot lineages the target
    version is already retired — restorable exactly until the next GC sweep
    reclaims its chunks (see :mod:`repro.lineage.restore`).
    """

    req_id: int
    at: float
    tenant: int
    target: int


Request = Union[DeployRequest, SnapshotRequest, TeardownRequest, RestoreRequest]


@dataclass(frozen=True)
class ChurnSpec:
    """Everything a churn run is parameterized by (frozen, hashable).

    The spec covers the open-loop workload (arrivals, tenants, lifetimes,
    snapshot propensity), the control plane (placement policy, slots,
    admission queue) and the storage hygiene cadence (GC interval,
    snapshot retention).
    """

    # ---- workload ---------------------------------------------------- #
    n_deploys: int = 200
    arrivals: str = "poisson"
    #: mean arrival rate, deploys per simulated second
    rate: float = 2.0
    n_tenants: int = 4
    #: instance lifetime = min_lifetime + Exp(mean_lifetime)
    mean_lifetime: float = 40.0
    min_lifetime: float = 8.0
    #: probability a deploy schedules a mid-life snapshot
    snapshot_fraction: float = 0.5
    #: probability a *snapshotting* deploy schedules a post-teardown restore
    #: of its newest snapshot (0 keeps the trace — and every RNG draw —
    #: bit-identical to a spec without the field)
    restore_fraction: float = 0.0
    #: local modifications written before each snapshot (the §5.3 diff)
    diff_bytes: int = 1 * 2**20
    # ---- control plane ----------------------------------------------- #
    policy: str = "first-fit"
    slots_per_node: int = 2
    max_queue: int = 16
    # ---- storage hygiene --------------------------------------------- #
    #: seconds between collect_garbage sweeps; 0 disables periodic GC
    gc_interval: float = 60.0
    #: storage-footprint sampling cadence when GC is off (same timeline)
    sample_interval: float = 25.0
    #: published snapshots kept per live instance (older ones unpublished)
    retention_per_vm: int = 1
    #: keep each instance's snapshot lineage published after teardown
    #: (False = the clone blob is unpublished, so a GC sweep reclaims it)
    retain_snapshots: bool = False

    def validate(self) -> "ChurnSpec":
        if self.arrivals not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.arrivals!r}; "
                f"pick one of {ARRIVAL_KINDS}"
            )
        if self.n_deploys < 1 or self.rate <= 0 or self.n_tenants < 1:
            raise ValueError("n_deploys, rate and n_tenants must be positive")
        if self.slots_per_node < 1 or self.max_queue < 0:
            raise ValueError("slots_per_node must be >= 1, max_queue >= 0")
        if not 0.0 <= self.restore_fraction <= 1.0:
            raise ValueError("restore_fraction must be within [0, 1]")
        return self


# --------------------------------------------------------------------------- #
def _arrival_times(spec: ChurnSpec, rng: np.random.Generator) -> List[float]:
    """Absolute deploy arrival times; strictly non-decreasing."""
    if spec.arrivals == "poisson":
        gaps = rng.exponential(1.0 / spec.rate, size=spec.n_deploys)
        return list(np.cumsum(gaps))

    # diurnal / bursty: thinning of a Poisson process at the peak rate.
    if spec.arrivals == "diurnal":
        peak = spec.rate * (1.0 + DIURNAL_AMPLITUDE)

        def intensity(t: float) -> float:
            return spec.rate * (
                1.0 + DIURNAL_AMPLITUDE * math.sin(2.0 * math.pi * t / DIURNAL_PERIOD)
            )
    else:  # bursty: flash crowds over a quiet baseline
        peak = spec.rate * BURST_FACTOR
        cycle = BURST_LEN + CALM_LEN
        # keep the long-run mean close to `rate`: the calm phase absorbs
        # what the bursts overshoot
        calm = max(
            0.1 * spec.rate,
            (spec.rate * cycle - peak * BURST_LEN) / CALM_LEN,
        )

        def intensity(t: float) -> float:
            return peak if (t % cycle) < BURST_LEN else calm

    times: List[float] = []
    t = 0.0
    while len(times) < spec.n_deploys:
        t += float(rng.exponential(1.0 / peak))
        if rng.random() <= intensity(t) / peak:
            times.append(t)
    return times


def generate_trace(spec: ChurnSpec, rng: np.random.Generator) -> Tuple[Request, ...]:
    """The full deterministic request trace, sorted by arrival time.

    Every deploy draws its tenant, lifetime and snapshot propensity from
    ``rng`` in a fixed order, so the same ``(spec, seed)`` always yields the
    identical trace — the foundation of the churn determinism guarantees.
    """
    spec.validate()
    requests: List[Request] = []
    rid = 0
    for t in _arrival_times(spec, rng):
        tenant = int(rng.integers(spec.n_tenants))
        lifetime = spec.min_lifetime + float(rng.exponential(spec.mean_lifetime))
        want_snapshot = bool(rng.random() < spec.snapshot_fraction)
        snap_frac = float(rng.uniform(0.4, 0.9))
        # restore draws are gated on the fraction so the default spec
        # consumes exactly the pre-restore draw sequence (trace_crc-stable)
        want_restore = False
        restore_delay = 0.0
        if spec.restore_fraction > 0.0:
            want_restore = bool(rng.random() < spec.restore_fraction)
            restore_delay = float(rng.uniform(0.2, 0.8)) * spec.mean_lifetime
        deploy = DeployRequest(req_id=rid, at=float(t), tenant=tenant)
        rid += 1
        requests.append(deploy)
        if want_snapshot:
            requests.append(
                SnapshotRequest(
                    req_id=rid, at=float(t + snap_frac * lifetime),
                    tenant=tenant, target=deploy.req_id,
                )
            )
            rid += 1
        requests.append(
            TeardownRequest(
                req_id=rid, at=float(t + lifetime),
                tenant=tenant, target=deploy.req_id,
            )
        )
        rid += 1
        if want_snapshot and want_restore:
            requests.append(
                RestoreRequest(
                    req_id=rid, at=float(t + lifetime + restore_delay),
                    tenant=tenant, target=deploy.req_id,
                )
            )
            rid += 1
    requests.sort(key=lambda r: (r.at, r.req_id))
    return tuple(requests)


def trace_crc(trace: Tuple[Request, ...]) -> int:
    """A stable fingerprint of a request trace (determinism checks)."""
    return zlib.crc32("\n".join(repr(r) for r in trace).encode())
