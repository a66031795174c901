"""Reproduction of Nicolae et al., *Going Back and Forth: Efficient
Multi-Deployment and Multi-Snapshotting on Clouds* (HPDC 2011).

The package provides:

* :mod:`repro.core` — the paper's contribution: a mirroring virtual file
  system for VM images with lazy on-demand fetch and ``CLONE``/``COMMIT``
  snapshotting primitives;
* :mod:`repro.blobseer` — a functional reimplementation of the BlobSeer
  versioning storage service (striping, shadowing, cloning);
* :mod:`repro.simkit` — a deterministic discrete-event cluster simulator
  standing in for the Grid'5000 testbed;
* :mod:`repro.baselines` — the comparison systems: taktuk-style broadcast
  prepropagation, a PVFS-like striped file system, and a qcow2-like
  copy-on-write image format;
* :mod:`repro.vmsim` — VM life-cycle workloads (boot traces, Bonnie++-like
  micro-benchmark, Monte Carlo application);
* :mod:`repro.cloud` — cluster construction and multideployment /
  multisnapshotting orchestration;
* :mod:`repro.analysis` — series handling and paper-style reports.

Quickstart::

    from repro.cloud import build_cloud, deploy
    from repro.common.units import MiB
    from repro.vmsim import make_image

    cloud = build_cloud(compute_nodes=16, seed=1)
    image = make_image(64 * MiB, touched_bytes=16 * MiB)
    result = deploy(cloud, image, 16, "mirror")
    print(result.completion_time, result.total_traffic)
"""

__version__ = "1.0.0"
