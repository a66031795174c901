"""Calibrated physical constants of the reproduced testbed.

Grid'5000 Nancy (the paper, §5.1): 120 nodes, x86_64, local 250 GB disks at
~55 MB/s, GigE measured at 117.5 MB/s TCP with ~0.1 ms latency, KVM 0.12.5,
2 GB raw Debian image, 256 KB chunks (both BlobSeer and PVFS), no
replication.

Everything the simulator cannot derive from first principles is a named
constant here, with the provenance noted. The benchmark harness imports this
module only — no magic numbers in experiment code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .common.units import GiB, KiB, MB, MiB, MILLISECONDS, MICROSECONDS


@dataclass(frozen=True)
class Testbed:
    """Hardware-level constants (paper §5.1, measured values)."""

    nic_bandwidth: float = 117.5 * MB          # measured TCP throughput
    network_latency: float = 0.1 * MILLISECONDS
    disk_read_bandwidth: float = 55 * MB       # local SATA, measured
    disk_write_bandwidth: float = 55 * MB
    disk_seek_time: float = 5 * MILLISECONDS   # avg seek, 7200rpm commodity class


@dataclass(frozen=True)
class ImageSpec:
    """The VM image used throughout the evaluation (paper §5.1/§5.2)."""

    size: int = 2 * GiB                        # raw Debian Sid image
    chunk_size: int = 256 * KiB                # optimal trade-off (paper §5.2)
    #: bytes of the image actually touched during boot. Derived from Fig. 4d:
    #: ~13 GB fetched for 110 instances with chunk-granularity prefetch
    #: => ~118 MiB/instance incl. prefetch overhead; PVFS-backed qcow2 moved
    #: ~12 GB => ~109 MiB of truly-accessed data.
    boot_touched_bytes: int = 109 * MiB


@dataclass(frozen=True)
class BootModel:
    """Boot-phase behaviour (paper §2.3 and §3.1.3 measurements)."""

    #: hypervisor initialization overhead range (uniform), source of the skew
    hypervisor_init_min: float = 0.2
    hypervisor_init_max: float = 1.2
    #: number of small config writes during boot
    write_ops: int = 24
    #: bytes written during boot (config files, logs)
    write_bytes: int = 2 * MiB
    #: CPU time consumed by the guest between I/Os, total
    cpu_seconds: float = 8.0


@dataclass(frozen=True)
class FuseModel:
    """Mirroring-module software overheads (paper §4.1, §5.4)."""

    #: extra user/kernel context-switch cost per FUSE-routed *metadata*
    #: operation (seek, create, delete — Fig. 7's gap)
    per_op_overhead: float = 45 * MICROSECONDS
    #: metadata-op cost for the plain local path (VFS only, no FUSE)
    local_per_op_overhead: float = 18 * MICROSECONDS
    #: per-block *data*-path overhead. FUSE readahead / big_writes merge
    #: small sequential requests into ~128 KiB FUSE requests, so the
    #: context-switch cost amortizes to a few us per 8 KiB block — which is
    #: why Fig. 6's BlockR is equal for both paths while Fig. 7's ops/s are
    #: not.
    data_op_overhead: float = 3 * MICROSECONDS
    local_data_op_overhead: float = 1.2 * MICROSECONDS
    #: effective cache-absorbed write bandwidth, default hypervisor file path
    #: (calibrated to Fig. 6 BlockW "local" ~190 MB/s)
    hypervisor_write_bandwidth: float = 190 * MB
    #: effective write bandwidth via the mirror's mmap write-back path
    #: (calibrated to Fig. 6 BlockW "our-approach" ~380 MB/s)
    mmap_write_bandwidth: float = 380 * MB
    #: cached re-read bandwidth (both paths, Fig. 6 BlockR ~460 MB/s)
    cached_read_bandwidth: float = 460 * MB
    #: dirty budget before write throttling (fraction of RAM, kernel default ~20%)
    dirty_budget: int = int(0.2 * 8 * GiB)


@dataclass(frozen=True)
class SnapshotModel:
    """Multisnapshotting workload (paper §5.3, §5.5).

    The local modifications per VM when the snapshot is taken are the
    profile's ``diff_bytes`` (:mod:`repro.runner.profiles`).
    """

    #: intermediate Monte Carlo result file size (paper §5.5)
    montecarlo_state_bytes: int = 10 * MiB


@dataclass(frozen=True)
class ServiceModel:
    """Storage-service software constants."""

    #: server-side CPU cost to look up + serve one chunk request
    chunk_request_overhead: float = 60 * MICROSECONDS
    #: metadata tree node fetch cost (BlobSeer metadata provider)
    metadata_node_overhead: float = 35 * MICROSECONDS
    #: version-manager publish round-trip bookkeeping
    publish_overhead: float = 0.5 * MILLISECONDS
    #: taktuk tree fanout (adaptive trees on GigE settle around 2)
    broadcast_fanout: int = 2
    #: per-file qcow2 creation cost during the qcow2-over-PVFS init phase
    qcow2_create_overhead: float = 50 * MILLISECONDS
    #: first-contact cost between two hosts (TCP + service handshake);
    #: drives the connection-count growth of Fig. 5(b)
    connection_setup: float = 5 * MILLISECONDS
    #: provider RAM budget for the async write pipeline; its exhaustion under
    #: write pressure is the Fig. 5(a) degradation mechanism
    provider_write_buffer: int = 2 * MiB
    #: client-side content-fingerprint throughput (SHA-class hash), used by
    #: the deduplication extension
    fingerprint_bandwidth: float = 400 * MB


@dataclass(frozen=True)
class Calibration:
    """The full calibrated model; default values reproduce the paper's setup."""

    testbed: Testbed = field(default_factory=Testbed)
    image: ImageSpec = field(default_factory=ImageSpec)
    boot: BootModel = field(default_factory=BootModel)
    fuse: FuseModel = field(default_factory=FuseModel)
    snapshot: SnapshotModel = field(default_factory=SnapshotModel)
    service: ServiceModel = field(default_factory=ServiceModel)


#: The default calibration used by every benchmark unless overridden.
DEFAULT = Calibration()
