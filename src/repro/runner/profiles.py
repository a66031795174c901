"""Benchmark profiles: named parameter sets for the paper's sweeps.

A :class:`BenchProfile` pins everything a measurement point needs: pool
size, the instance counts the figure sweeps, the :class:`Calibration` its
points run under (image geometry and testbed included), and the workload
knobs of the §5.4/§5.5 experiments. Two profiles ship for the figures:

* ``paper`` — the full §5.1 setup: 120-node pool, 2 GiB image, 256 KiB
  chunks, up to 110 concurrent instances;
* ``quick`` — a scaled-down profile for smoke-testing the harness
  (``REPRO_BENCH_PROFILE=quick``).

A :class:`~repro.runner.spec.PointSpec` carries its profile by value, so an
ad-hoc profile (an ablation, a CLI run, a test) is ``dataclasses.replace``
of a shipped one and needs no registration. The name table below serves
the CLI's ``--profile`` and ``REPRO_BENCH_PROFILE``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..calibration import DEFAULT, BootModel, Calibration, ImageSpec, Testbed
from ..common.units import KiB, MB, MiB, MILLISECONDS

#: environment variable selecting the benchmark profile
PROFILE_ENV = "REPRO_BENCH_PROFILE"


@dataclass(frozen=True)
class BenchProfile:
    name: str
    pool_nodes: int
    instance_counts: tuple
    #: the calibration every point of the profile runs under
    calib: Calibration
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


PAPER = BenchProfile(
    name="paper",
    pool_nodes=120,
    instance_counts=(1, 20, 40, 60, 80, 110),
    calib=DEFAULT,  # 2 GiB image, 256 KiB chunks, ~109 MiB touched
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
    calib=Calibration(image=ImageSpec(size=512 * MiB, boot_touched_bytes=32 * MiB)),
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
    calib=Calibration(image=ImageSpec(size=256 * MiB, boot_touched_bytes=24 * MiB)),
    n_regions=32,
    diff_bytes=6 * MiB,
    mc_workers=16,
    mc_total_compute=120.0,
    bonnie_working_set=128 * MiB,
)

#: NVMe-class disks for a repository on dedicated nodes (López García &
#: Fernández del Castillo): with the disks out of the way the GigE fabric is
#: the bottleneck. The ``scale``, ``churn``, ``lineage`` and ``topo``
#: profiles and their smoke siblings run on it.
NVME = Testbed(
    disk_read_bandwidth=1000 * MB,
    disk_write_bandwidth=1000 * MB,
    disk_seek_time=0.05 * MILLISECONDS,
)

#: The paper-scale fabric profile of the benchmark suite's burst workloads
#: (``benchmarks/suite/workloads.py``). The repository is *concentrated* on the
#: first 8 pool nodes and runs on :data:`NVME`, so hundreds of concurrent
#: flows fan in on 8 uplinks: the contention regime the paper's fig4/fig5
#: campaigns study at n in the hundreds.
SCALE = BenchProfile(
    name="scale",
    pool_nodes=520,
    instance_counts=(64, 256, 512),
    calib=Calibration(testbed=NVME, image=ImageSpec(size=32 * MiB, boot_touched_bytes=8 * MiB)),
    n_regions=32,
    diff_bytes=2 * MiB,
    mc_workers=16,
    mc_total_compute=120.0,
    bonnie_working_set=128 * MiB,
    data_nodes=8,
    meta_nodes=8,
)

#: Tiny sibling of ``scale`` for CI smoke runs (``make suite-smoke``): the
#: same concentrated-repository shape at an n that simulates in well under a
#: second.
SCALE_SMOKE = BenchProfile(
    name="scale-smoke",
    pool_nodes=20,
    instance_counts=(4, 12),
    calib=Calibration(testbed=NVME, image=ImageSpec(size=8 * MiB, boot_touched_bytes=2 * MiB)),
    n_regions=16,
    diff_bytes=1 * MiB,
    mc_workers=4,
    mc_total_compute=30.0,
    bonnie_working_set=32 * MiB,
    data_nodes=4,
    meta_nodes=4,
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
    #: NVMe repository disks but a *rate-limited* tenant NIC and a
    #: stripped-down appliance guest: churn studies placement, so boots must
    #: be dominated by the image-fetch I/O placement actually influences.
    #: Commodity clouds cap per-instance bandwidth well below line rate
    #: (~400 Mbit here), which also puts the 8 repository uplinks in the
    #: paper's fan-in-contention regime during arrival bursts.
    calib=Calibration(
        testbed=dataclasses.replace(NVME, nic_bandwidth=50 * MB),
        image=ImageSpec(size=32 * MiB, boot_touched_bytes=16 * MiB),
        boot=BootModel(cpu_seconds=0.5, hypervisor_init_min=0.1, hypervisor_init_max=0.4),
    ),
    n_regions=16,
    diff_bytes=2 * MiB,
    mc_workers=8,
    mc_total_compute=60.0,
    bonnie_working_set=64 * MiB,
    data_nodes=8,
    meta_nodes=8,
)

#: Tiny sibling of ``churn`` for CI smoke runs and the determinism tests.
CHURN_SMOKE = BenchProfile(
    name="churn-smoke",
    pool_nodes=10,
    instance_counts=(30, 60),
    calib=Calibration(testbed=NVME, image=ImageSpec(size=8 * MiB, boot_touched_bytes=2 * MiB)),
    n_regions=8,
    diff_bytes=512 * KiB,
    mc_workers=4,
    mc_total_compute=30.0,
    bonnie_working_set=32 * MiB,
    data_nodes=4,
    meta_nodes=4,
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
    calib=Calibration(testbed=NVME, image=ImageSpec(size=32 * MiB, boot_touched_bytes=8 * MiB)),
    n_regions=16,
    diff_bytes=1 * MiB,
    mc_workers=4,
    mc_total_compute=30.0,
    bonnie_working_set=32 * MiB,
    data_nodes=4,
    meta_nodes=4,
)

#: Tiny sibling of ``lineage`` for CI smoke runs and the determinism tests.
LINEAGE_SMOKE = BenchProfile(
    name="lineage-smoke",
    pool_nodes=8,
    instance_counts=(2, 5),
    calib=Calibration(testbed=NVME, image=ImageSpec(size=8 * MiB, boot_touched_bytes=2 * MiB)),
    n_regions=8,
    diff_bytes=256 * KiB,
    mc_workers=4,
    mc_total_compute=30.0,
    bonnie_working_set=32 * MiB,
    data_nodes=4,
    meta_nodes=4,
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
    calib=Calibration(testbed=NVME, image=ImageSpec(size=32 * MiB, boot_touched_bytes=8 * MiB)),
    n_regions=32,
    diff_bytes=2 * MiB,
    mc_workers=16,
    mc_total_compute=120.0,
    bonnie_working_set=128 * MiB,
    meta_nodes=8,
)

#: Tiny sibling of ``topo`` for CI smoke runs and the determinism tests.
TOPO_SMOKE = BenchProfile(
    name="topo-smoke",
    pool_nodes=16,
    instance_counts=(8, 12),
    calib=Calibration(testbed=NVME, image=ImageSpec(size=8 * MiB, boot_touched_bytes=2 * MiB)),
    n_regions=16,
    diff_bytes=512 * KiB,
    mc_workers=4,
    mc_total_compute=30.0,
    bonnie_working_set=32 * MiB,
    meta_nodes=4,
)

_BY_NAME: Dict[str, BenchProfile] = {
    p.name: p for p in (PAPER, QUICK, P2P, SCALE, SCALE_SMOKE, CHURN, CHURN_SMOKE,
                        LINEAGE, LINEAGE_SMOKE, TOPO, TOPO_SMOKE)
}


def known_profiles() -> Tuple[str, ...]:
    return tuple(sorted(_BY_NAME))


def resolve_profile(name: str) -> BenchProfile:
    try:
        return _BY_NAME[name]
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
    if value not in _BY_NAME:
        raise ValueError(
            f"unrecognized {PROFILE_ENV}={value!r}; known profiles: "
            f"{', '.join(known_profiles())}"
        )
    return _BY_NAME[value]
