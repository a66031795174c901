"""Integration tests: multideployment and multisnapshotting orchestration."""

import pytest

from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud, deploy, snapshot_all
from repro.common.errors import MiddlewareError
from repro.common.units import KiB, MiB
from repro.vmsim import make_image
from repro.vmsim.workloads import read_your_writes_workload

SMALL = Calibration(
    image=ImageSpec(size=128 * MiB, chunk_size=256 * KiB, boot_touched_bytes=12 * MiB)
)


def small_cloud(n=6, seed=11):
    cloud = build_cloud(n, seed=seed, calib=SMALL)
    image = make_image(SMALL.image.size, SMALL.image.boot_touched_bytes, n_regions=16)
    return cloud, image


class TestDeploy:
    @pytest.mark.parametrize("approach", ["mirror", "qcow2-pvfs", "prepropagation"])
    def test_all_instances_boot(self, approach):
        cloud, image = small_cloud()
        res = deploy(cloud, image, 6, approach)
        assert len(res.boot_times) == 6
        assert all(t > 0 for t in res.boot_times)
        assert res.completion_time >= max(res.boot_times)

    def test_mirror_has_no_init_phase(self):
        cloud, image = small_cloud()
        res = deploy(cloud, image, 4, "mirror")
        assert res.init_time == 0.0

    def test_prepropagation_init_dominates(self):
        cloud, image = small_cloud()
        res = deploy(cloud, image, 6, "prepropagation")
        assert res.init_time > 0
        # after init, boots are purely local and fast
        assert res.init_time > res.avg_boot_time

    def test_mirror_traffic_far_below_prepropagation(self):
        c1, img1 = small_cloud()
        mirror = deploy(c1, img1, 6, "mirror")
        c2, img2 = small_cloud()
        prep = deploy(c2, img2, 6, "prepropagation")
        # prepropagation moves ~6 full images; mirror only the touched set
        assert prep.total_traffic > 4 * mirror.total_traffic
        assert mirror.total_traffic < 6 * SMALL.image.size / 3

    def test_mirror_completion_beats_prepropagation(self):
        c1, img1 = small_cloud()
        mirror = deploy(c1, img1, 6, "mirror")
        c2, img2 = small_cloud()
        prep = deploy(c2, img2, 6, "prepropagation")
        assert mirror.completion_time < prep.completion_time

    def test_too_many_instances_rejected(self):
        cloud, image = small_cloud(n=2)
        with pytest.raises(MiddlewareError):
            deploy(cloud, image, 3, "mirror")

    def test_negative_instance_count_rejected(self):
        cloud, image = small_cloud(n=4)
        with pytest.raises(MiddlewareError, match="negative"):
            deploy(cloud, image, -1, "mirror")

    def test_unknown_approach_rejected(self):
        cloud, image = small_cloud(n=2)
        with pytest.raises(MiddlewareError):
            deploy(cloud, image, 2, "bittorrent")

    def test_deterministic_given_seed(self):
        def once():
            cloud, image = small_cloud(seed=42)
            res = deploy(cloud, image, 5, "mirror")
            return res.completion_time, res.total_traffic, tuple(res.boot_times)

        assert once() == once()

    def test_boot_skew_emerges(self):
        """Instances do not hit the repository in lock-step (§3.1.3)."""
        cloud, image = small_cloud()
        res = deploy(cloud, image, 6, "mirror")
        assert len(set(res.boot_times)) == 6  # all distinct


class TestSnapshotCampaign:
    def _deployed(self, approach, n=6):
        cloud, image = small_cloud()
        res = deploy(cloud, image, n, approach)
        diff = 5 * MiB

        def apply_diff(vm, i):
            ops = read_your_writes_workload(
                image.write_base, diff, cloud.fabric.rng.get("app", i), reread_fraction=0.1
            )
            yield from vm.run_ops(ops)

        procs = [cloud.env.process(apply_diff(vm, i)) for i, vm in enumerate(res.vms)]
        cloud.run(cloud.env.all_of(procs))
        return cloud, image, res

    @pytest.mark.parametrize("approach", ["mirror", "qcow2-pvfs"])
    def test_snapshot_all(self, approach):
        cloud, image, res = self._deployed(approach)
        snap = snapshot_all(cloud, res.vms, approach)
        assert len(snap.per_instance) == 6
        assert snap.avg_time > 0
        assert snap.completion_time >= max(s.duration for s in snap.per_instance)
        # moved roughly the diffs, nowhere near full images
        assert snap.total_bytes_moved < 6 * SMALL.image.size / 4

    def test_mirror_stores_only_diffs_repository_wide(self):
        cloud, image, res = self._deployed("mirror")
        before = cloud.blobseer.stored_bytes()
        snapshot_all(cloud, res.vms, "mirror")
        added = cloud.blobseer.stored_bytes() - before
        # 6 VMs x ~5 MiB diff, chunk-rounded; far below 6 full images
        assert added < 6 * 12 * MiB

    def test_mirror_second_campaign_moves_only_new_dirt(self):
        cloud, image, res = self._deployed("mirror")
        snapshot_all(cloud, res.vms, "mirror")
        snap2 = snapshot_all(cloud, res.vms, "mirror")
        assert snap2.total_bytes_moved == 0  # nothing written since

    def test_qcow2_recopies_whole_delta_file(self):
        cloud, image, res = self._deployed("qcow2-pvfs")
        s1 = snapshot_all(cloud, res.vms, "qcow2-pvfs")
        s2 = snapshot_all(cloud, res.vms, "qcow2-pvfs")
        assert s2.total_bytes_moved >= s1.total_bytes_moved  # no shadowing

    def test_qcow2_snapshot_paths_are_numbered_per_cloud(self):
        """A PVFS snapshot's path picks its metadata server, so a cloud's
        qcow2 snapshots must not depend on the clouds built before it."""
        runs = []
        for _ in range(2):
            cloud, image, res = self._deployed("qcow2-pvfs")
            snap = snapshot_all(cloud, res.vms, "qcow2-pvfs")
            runs.append(([s.ident for s in snap.per_instance], snap.avg_time))
        assert runs[0] == runs[1]

    def test_each_mirror_snapshot_is_distinct_blob(self):
        cloud, image, res = self._deployed("mirror")
        snap = snapshot_all(cloud, res.vms, "mirror")
        blobs = {s.ident.split("@")[0] for s in snap.per_instance}
        assert len(blobs) == 6
