#!/usr/bin/env python3
"""Monte Carlo workers with suspend/resume migration (paper §5.5).

Runs the paper's real-world workload end to end: a fleet of Monte Carlo
workers saving intermediate results inside their images is deployed with the
mirroring VFS, computed half-way, multisnapshotted, terminated, and resumed
*on different nodes* from the captured snapshots — continuing exactly where
they left off.

Run: ``python examples/montecarlo_suspend_resume.py [n_workers]``
"""

import sys

from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud, instance
from repro.cloud.middleware import CloudMiddleware
from repro.common.units import KiB, MiB, fmt_time
from repro.vmsim import MonteCarloConfig, MonteCarloWorker, make_image


def main() -> None:
    n_workers = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    calib = Calibration(
        image=ImageSpec(size=256 * MiB, chunk_size=256 * KiB, boot_touched_bytes=16 * MiB)
    )
    cloud = build_cloud(2 * n_workers, seed=99, calib=calib)
    image = make_image(calib.image.size, calib.image.boot_touched_bytes, n_regions=24)
    mw = CloudMiddleware(cloud)
    cfg = MonteCarloConfig(
        total_compute=600.0, checkpoint_interval=60.0,
        state_bytes=10 * MiB, state_offset=image.write_base,
    )

    # --- phase 1: deploy and compute half of the samples --------------------
    res = mw.deploy_set(image, n_workers, "mirror")
    print(f"{n_workers} workers booted in {fmt_time(res.completion_time)} "
          f"(avg boot {fmt_time(res.avg_boot_time)})")
    workers = [MonteCarloWorker(vm.name, vm.backend, cfg) for vm in res.vms]
    cloud.run(cloud.env.all_of(
        [cloud.env.process(w.run(until_progress=300.0)) for w in workers]
    ))
    print(f"half-way point reached at t={fmt_time(cloud.env.now)} "
          f"(each worker computed {workers[0].progress:.0f}s worth of samples)")

    # --- phase 2: multisnapshot and terminate --------------------------------
    campaign = mw.snapshot_set(res.vms, "mirror")
    mw.terminate_set(res.vms)
    print(f"deployment snapshotted in {fmt_time(campaign.completion_time)} "
          f"({campaign.total_bytes_moved / 2**20:.0f} MiB of diffs persisted) "
          "and terminated")

    # --- phase 3: resume every worker on a different node --------------------
    fresh = cloud.compute[n_workers:]
    resumed = mw.resume_set(list(campaign.per_instance), fresh)
    cloud.run(cloud.env.all_of(instance.spawn_boots(resumed, image, ("resume-trace",))))
    print(f"resumed on fresh nodes {fresh[0].name}..{fresh[-1].name}, rebooted")

    new_workers = [MonteCarloWorker(vm.name, vm.backend, cfg) for vm in resumed]
    cloud.run(cloud.env.all_of([cloud.env.process(w.run()) for w in new_workers]))
    assert all(w.finished for w in new_workers)
    print(f"all workers finished at t={fmt_time(cloud.env.now)}; "
          "progress was carried through the snapshots (no recomputation)")


if __name__ == "__main__":
    main()
