"""Tests for cluster construction options."""

from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud
from repro.common.units import KiB, MiB

SMALL = Calibration(
    image=ImageSpec(size=32 * MiB, chunk_size=256 * KiB, boot_touched_bytes=4 * MiB)
)


class TestBuildCloud:
    def test_topology(self):
        cloud = build_cloud(6, seed=1, calib=SMALL)
        assert len(cloud.compute) == 6
        assert cloud.manager.name == "manager"
        assert cloud.nfs_host.name == "nfs-server"
        assert cloud.blobseer is not None
        assert cloud.pvfs is not None

    def test_services_optional(self):
        cloud = build_cloud(4, seed=1, calib=SMALL, with_pvfs=False)
        assert cloud.pvfs is None
        assert cloud.blobseer is not None

    def test_storage_on_compute_nodes(self):
        """§3.1.1: the pool aggregates the compute nodes' local disks."""
        cloud = build_cloud(5, seed=1, calib=SMALL)
        assert set(cloud.blobseer.data_services) == {h.name for h in cloud.compute}
        assert set(cloud.pvfs.io_servers) == {h.name for h in cloud.compute}

    def test_calibration_applied(self):
        cloud = build_cloud(2, seed=1, calib=SMALL)
        tb = SMALL.testbed
        node = cloud.compute[0]
        assert node.nic.up_capacity == tb.nic_bandwidth
        assert node.disk.read_bandwidth == tb.disk_read_bandwidth
        assert node.disk.seek_time == tb.disk_seek_time
        assert cloud.fabric.connection_setup == SMALL.service.connection_setup

    def test_dedup_flag(self):
        cloud = build_cloud(2, seed=1, calib=SMALL, dedup=True)
        assert cloud.blobseer.dedup_index is not None
        cloud2 = build_cloud(2, seed=1, calib=SMALL)
        assert cloud2.blobseer.dedup_index is None

    def test_placement_strategy(self):
        cloud = build_cloud(4, seed=1, calib=SMALL, racks=2, placement="rack-diverse")
        assert cloud.blobseer.policy.strategy == "rack-diverse"

    def test_write_buffer_from_calibration(self):
        cloud = build_cloud(2, seed=1, calib=SMALL)
        svc = next(iter(cloud.blobseer.data_services.values()))
        assert svc._buffer.capacity == float(SMALL.service.provider_write_buffer)
