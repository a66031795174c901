"""Benchmark profiles: named parameter sets for the paper's sweeps.

A :class:`BenchProfile` pins everything a measurement point needs beyond the
calibration constants: pool size, the instance counts the figure sweeps,
image geometry, and the workload knobs of the §5.4/§5.5 experiments. Two
profiles ship by default:

* ``paper`` — the full §5.1 setup: 120-node pool, 2 GiB image, 256 KiB
  chunks, up to 110 concurrent instances;
* ``quick`` — a scaled-down profile for smoke-testing the harness
  (``REPRO_BENCH_PROFILE=quick``).

Profiles are resolved *by name* so a :class:`~repro.runner.spec.PointSpec`
stays a small picklable value that worker processes can reconstruct.
Ad-hoc profiles (ablations, tests) register themselves with
:func:`register_profile` before the sweep fans out.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..calibration import DEFAULT, Calibration, ImageSpec
from ..common.units import KiB, MB, MiB, MILLISECONDS

#: environment variable selecting the benchmark profile
PROFILE_ENV = "REPRO_BENCH_PROFILE"


@dataclass(frozen=True)
class BenchProfile:
    name: str
    pool_nodes: int
    instance_counts: tuple
    image_size: int
    chunk_size: int
    touched_bytes: int
    n_regions: int
    diff_bytes: int
    mc_workers: int
    mc_total_compute: float
    bonnie_working_set: int
    #: restrict the BlobSeer data/metadata providers to the first K pool
    #: nodes (None = every compute node hosts a provider, the §3.1.1
    #: co-located default). A concentrated repository is what makes the
    #: paper's fan-in contention regime reachable at large n.
    data_nodes: Optional[int] = None
    meta_nodes: Optional[int] = None
    #: profile-level calibration overrides, same ``("section.field", value)``
    #: shape as spec overrides; spec overrides apply on top and win.
    calib_overrides: tuple = ()


PAPER = BenchProfile(
    name="paper",
    pool_nodes=120,
    instance_counts=(1, 20, 40, 60, 80, 110),
    image_size=DEFAULT.image.size,          # 2 GiB
    chunk_size=DEFAULT.image.chunk_size,    # 256 KiB
    touched_bytes=DEFAULT.image.boot_touched_bytes,  # ~109 MiB
    n_regions=64,
    diff_bytes=15 * MiB,  # per-VM local modifications, paper §5.3
    mc_workers=100,
    mc_total_compute=1000.0,
    bonnie_working_set=800 * MiB,
)

QUICK = BenchProfile(
    name="quick",
    pool_nodes=24,
    instance_counts=(1, 8, 16, 24),
    image_size=512 * MiB,
    chunk_size=256 * KiB,
    touched_bytes=32 * MiB,
    n_regions=32,
    diff_bytes=6 * MiB,
    mc_workers=16,
    mc_total_compute=120.0,
    bonnie_working_set=128 * MiB,
)

P2P = BenchProfile(
    name="p2p",
    pool_nodes=80,
    instance_counts=(16, 32, 64),
    image_size=256 * MiB,
    chunk_size=256 * KiB,
    touched_bytes=24 * MiB,
    n_regions=32,
    diff_bytes=6 * MiB,
    mc_workers=16,
    mc_total_compute=120.0,
    bonnie_working_set=128 * MiB,
)

#: The paper-scale fabric profile of the benchmark suite's burst workloads
#: (``benchmarks/suite/workloads.py``). The repository is *concentrated* on the
#: first 8 pool nodes (dedicated repository nodes, as in López García &
#: Fernández del Castillo) and the providers get NVMe-class disks, so the
#: GigE fabric — not the disks — is the bottleneck: hundreds of concurrent
#: flows fan in on 8 uplinks, the contention regime the paper's fig4/fig5
#: campaigns study at n in the hundreds.
SCALE = BenchProfile(
    name="scale",
    pool_nodes=520,
    instance_counts=(64, 256, 512),
    image_size=32 * MiB,
    chunk_size=256 * KiB,
    touched_bytes=8 * MiB,
    n_regions=32,
    diff_bytes=2 * MiB,
    mc_workers=16,
    mc_total_compute=120.0,
    bonnie_working_set=128 * MiB,
    data_nodes=8,
    meta_nodes=8,
    calib_overrides=(
        ("testbed.disk_read_bandwidth", 1000 * MB),
        ("testbed.disk_write_bandwidth", 1000 * MB),
        ("testbed.disk_seek_time", 0.05 * MILLISECONDS),
    ),
)

#: Tiny sibling of ``scale`` for CI smoke runs (``make suite-smoke``): the
#: same concentrated-repository shape at an n that simulates in well under a
#: second.
SCALE_SMOKE = BenchProfile(
    name="scale-smoke",
    pool_nodes=20,
    instance_counts=(4, 12),
    image_size=8 * MiB,
    chunk_size=256 * KiB,
    touched_bytes=2 * MiB,
    n_regions=16,
    diff_bytes=1 * MiB,
    mc_workers=4,
    mc_total_compute=30.0,
    bonnie_working_set=32 * MiB,
    data_nodes=4,
    meta_nodes=4,
    calib_overrides=SCALE.calib_overrides,
)

#: Long-horizon churn runs (the churn row of ``benchmarks/grids.py``):
#: thousands of small instances arriving, snapshotting and tearing down over
#: a shared pool. Small images keep a 10k-request horizon tractable while the
#: concentrated 8-node repository preserves the paper's fan-in regime; for
#: a churn point ``n`` counts *deploy requests*, not concurrent instances.
CHURN = BenchProfile(
    name="churn",
    pool_nodes=48,
    instance_counts=(400, 1500),
    image_size=32 * MiB,
    chunk_size=256 * KiB,
    touched_bytes=16 * MiB,
    n_regions=16,
    diff_bytes=2 * MiB,
    mc_workers=8,
    mc_total_compute=60.0,
    bonnie_working_set=64 * MiB,
    data_nodes=8,
    meta_nodes=8,
    #: NVMe repository disks (as in ``scale``) but a *rate-limited* tenant
    #: NIC and a stripped-down appliance guest: churn studies placement, so
    #: boots must be dominated by the image-fetch I/O placement actually
    #: influences. Commodity clouds cap per-instance bandwidth well below
    #: line rate (~400 Mbit here), which also puts the 8 repository uplinks
    #: in the paper's fan-in-contention regime during arrival bursts.
    calib_overrides=SCALE.calib_overrides + (
        ("testbed.nic_bandwidth", 50 * MB),
        ("boot.cpu_seconds", 0.5),
        ("boot.hypervisor_init_min", 0.1),
        ("boot.hypervisor_init_max", 0.4),
    ),
)

#: Tiny sibling of ``churn`` for CI smoke runs and the determinism tests.
CHURN_SMOKE = BenchProfile(
    name="churn-smoke",
    pool_nodes=10,
    instance_counts=(30, 60),
    image_size=8 * MiB,
    chunk_size=256 * KiB,
    touched_bytes=2 * MiB,
    n_regions=8,
    diff_bytes=512 * KiB,
    mc_workers=4,
    mc_total_compute=30.0,
    bonnie_working_set=32 * MiB,
    data_nodes=4,
    meta_nodes=4,
    calib_overrides=SCALE.calib_overrides,
)

#: Snapshot-lineage runs (the lineage row of ``benchmarks/grids.py``): one
#: VM commits a chain of snapshots; for a lineage point ``n`` is the *chain
#: depth* (COMMIT count), not an instance count. Small images and the concentrated NVMe
#: repository keep deep chains fast to build — the measured quantity is the
#: restore *scan*, whose cost is version-manager round-trips, not data I/O.
LINEAGE = BenchProfile(
    name="lineage",
    pool_nodes=12,
    instance_counts=(2, 4, 8, 16, 32),
    image_size=32 * MiB,
    chunk_size=256 * KiB,
    touched_bytes=8 * MiB,
    n_regions=16,
    diff_bytes=1 * MiB,
    mc_workers=4,
    mc_total_compute=30.0,
    bonnie_working_set=32 * MiB,
    data_nodes=4,
    meta_nodes=4,
    calib_overrides=SCALE.calib_overrides,
)

#: Tiny sibling of ``lineage`` for CI smoke runs and the determinism tests.
LINEAGE_SMOKE = BenchProfile(
    name="lineage-smoke",
    pool_nodes=8,
    instance_counts=(2, 5),
    image_size=8 * MiB,
    chunk_size=256 * KiB,
    touched_bytes=2 * MiB,
    n_regions=8,
    diff_bytes=256 * KiB,
    mc_workers=4,
    mc_total_compute=30.0,
    bonnie_working_set=32 * MiB,
    data_nodes=4,
    meta_nodes=4,
    calib_overrides=SCALE.calib_overrides,
)

#: Hierarchical-fabric runs (the topo rows of ``benchmarks/grids.py``): the
#: co-located repository of §3.1.1 (every compute node is a provider) spread
#: over racks with oversubscribed uplinks. NVMe-class disks keep the *network*
#: the bottleneck, so the cross-rack byte volume — the quantity the
#: locality-aware policies attack — is what sets deployment time. For a
#: topo point ``n`` is the concurrent-instance count, as in ``scale``.
TOPO = BenchProfile(
    name="topo",
    pool_nodes=264,
    instance_counts=(64, 256),
    image_size=32 * MiB,
    chunk_size=256 * KiB,
    touched_bytes=8 * MiB,
    n_regions=32,
    diff_bytes=2 * MiB,
    mc_workers=16,
    mc_total_compute=120.0,
    bonnie_working_set=128 * MiB,
    meta_nodes=8,
    calib_overrides=SCALE.calib_overrides,
)

#: Tiny sibling of ``topo`` for CI smoke runs and the determinism tests.
TOPO_SMOKE = BenchProfile(
    name="topo-smoke",
    pool_nodes=16,
    instance_counts=(8, 12),
    image_size=8 * MiB,
    chunk_size=256 * KiB,
    touched_bytes=2 * MiB,
    n_regions=16,
    diff_bytes=512 * KiB,
    mc_workers=4,
    mc_total_compute=30.0,
    bonnie_working_set=32 * MiB,
    meta_nodes=4,
    calib_overrides=SCALE.calib_overrides,
)

_REGISTRY: Dict[str, BenchProfile] = {
    PAPER.name: PAPER, QUICK.name: QUICK, P2P.name: P2P,
    SCALE.name: SCALE, SCALE_SMOKE.name: SCALE_SMOKE,
    CHURN.name: CHURN, CHURN_SMOKE.name: CHURN_SMOKE,
    LINEAGE.name: LINEAGE, LINEAGE_SMOKE.name: LINEAGE_SMOKE,
    TOPO.name: TOPO, TOPO_SMOKE.name: TOPO_SMOKE,
}


def register_profile(profile: BenchProfile) -> BenchProfile:
    """Register (or replace) a profile so specs can resolve it by name."""
    _REGISTRY[profile.name] = profile
    return profile


def known_profiles() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def resolve_profile(name: str) -> BenchProfile:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark profile {name!r}; known profiles: "
            f"{', '.join(known_profiles())}"
        ) from None


def active_profile() -> BenchProfile:
    """The profile selected by ``REPRO_BENCH_PROFILE`` (default ``paper``).

    An unrecognized value raises instead of silently falling back to the
    full paper profile (a typo like ``qiuck`` used to cost minutes of
    unintended wall time).
    """
    value = os.environ.get(PROFILE_ENV)
    if value is None or value == "":
        return PAPER
    if value not in _REGISTRY:
        raise ValueError(
            f"unrecognized {PROFILE_ENV}={value!r}; known profiles: "
            f"{', '.join(known_profiles())}"
        )
    return _REGISTRY[value]


def apply_overrides(calib: Calibration, overrides: Iterable[tuple]) -> Calibration:
    """Return ``calib`` with ``("section.field", value)`` overrides applied."""
    for path, value in overrides:
        try:
            section_name, field_name = path.split(".", 1)
            section = getattr(calib, section_name)
            section = dataclasses.replace(section, **{field_name: value})
        except (ValueError, AttributeError, TypeError):
            raise ValueError(f"bad calibration override {path!r}") from None
        calib = dataclasses.replace(calib, **{section_name: section})
    return calib


def profile_calibration(
    profile: BenchProfile, overrides: Iterable[tuple] = ()
) -> Calibration:
    """The calibration a profile's points run under (plus spec overrides)."""
    calib = Calibration(
        image=ImageSpec(
            size=profile.image_size,
            chunk_size=profile.chunk_size,
            boot_touched_bytes=profile.touched_bytes,
        )
    )
    calib = apply_overrides(calib, profile.calib_overrides)
    return apply_overrides(calib, overrides)
