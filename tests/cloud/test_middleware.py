"""Tests for the cloud-middleware control API, including suspend/resume."""

import pytest

from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud
from repro.cloud.middleware import CloudMiddleware
from repro.common.errors import MiddlewareError
from repro.common.units import KiB, MiB
from repro.vmsim import MonteCarloConfig, MonteCarloWorker, make_image

SMALL = Calibration(
    image=ImageSpec(size=64 * MiB, chunk_size=256 * KiB, boot_touched_bytes=6 * MiB)
)


def make_mw(n=6, seed=21):
    cloud = build_cloud(n, seed=seed, calib=SMALL)
    image = make_image(SMALL.image.size, SMALL.image.boot_touched_bytes, n_regions=12)
    return cloud, image, CloudMiddleware(cloud)


class TestControlApi:
    def test_deploy_and_terminate(self):
        cloud, image, mw = make_mw()
        res = mw.deploy_set(image, 4, "mirror")
        assert len(res.vms) == 4
        mw.terminate_set(res.vms)
        # mirror state persisted on every node
        for vm in res.vms:
            assert vm.backend.handle.closed

    def test_snapshot_instance_fine_grained(self):
        cloud, image, mw = make_mw()
        res = mw.deploy_set(image, 2, "mirror")
        (snap,) = mw.snapshot_set(res.vms[:1]).per_instance
        assert snap.ident.startswith("blob")

    def test_snapshot_set_then_resume_on_fresh_nodes(self):
        cloud, image, mw = make_mw(n=8)
        res = mw.deploy_set(image, 4, "mirror")
        campaign = mw.snapshot_set(res.vms, "mirror")
        mw.terminate_set(res.vms)
        fresh = cloud.compute[4:8]
        resumed = mw.resume_set([s for s in campaign.per_instance], fresh)
        assert len(resumed) == 4
        assert {vm.host.name for vm in resumed} == {h.name for h in fresh}

    def test_resume_rejects_non_mirror_snapshots(self):
        from repro.vmsim.backends import SnapshotResult

        cloud, image, mw = make_mw()
        with pytest.raises(MiddlewareError):
            mw.resume_set(
                [SnapshotResult("/snapshots/x.qcow2", 10, 0.1)], cloud.compute[:1]
            )

    def test_resume_needs_enough_nodes(self):
        from repro.vmsim.backends import SnapshotResult

        cloud, image, mw = make_mw()
        snaps = [SnapshotResult("blob1@v1", 0, 0.0)] * 3
        with pytest.raises(MiddlewareError):
            mw.resume_set(snaps, cloud.compute[:2])


class TestMonteCarloSuspendResume:
    def test_progress_survives_snapshot_and_migration(self):
        """The full §5.5 cycle: deploy, half-compute, snapshot, resume elsewhere."""
        cloud, image, mw = make_mw(n=6, seed=31)
        res = mw.deploy_set(image, 3, "mirror")
        cfg = MonteCarloConfig(
            total_compute=10.0, checkpoint_interval=2.0,
            state_bytes=1 * MiB, state_offset=image.write_base,
        )
        workers = [MonteCarloWorker(vm.name, vm.backend, cfg) for vm in res.vms]

        # run half the computation
        procs = [cloud.env.process(w.run(until_progress=6.0)) for w in workers]
        cloud.run(cloud.env.all_of(procs))
        assert all(w.progress == 6.0 for w in workers)

        campaign = mw.snapshot_set(res.vms, "mirror")
        mw.terminate_set(res.vms)

        resumed = mw.resume_set(list(campaign.per_instance), cloud.compute[3:6])
        new_workers = []
        for vm in resumed:
            def open_backend(vm=vm):
                yield from vm.backend.open()

            cloud.run(cloud.env.process(open_backend()))
            new_workers.append(MonteCarloWorker(vm.name, vm.backend, cfg))

        procs = [cloud.env.process(w.run()) for w in new_workers]
        cloud.run(cloud.env.all_of(procs))
        # resumed from 6.0, not from scratch
        assert all(w.finished for w in new_workers)
        t_half_compute_remaining = 4.0
        # the resumed phase must have cost ~remaining compute, not the full 10 s
        # (loose bound: snapshot+open overheads are sub-second here)
        assert all(w.progress == 10.0 for w in new_workers)
