"""Sanity tests for the calibrated testbed model (paper §5.1 values)."""

import dataclasses

from repro.calibration import DEFAULT, Calibration, ImageSpec
from repro.calibration import Testbed as CalibTestbed
from repro.common.units import GiB, KiB, MB, MiB


class TestPaperValues:
    def test_testbed_matches_section_5_1(self):
        tb = DEFAULT.testbed
        assert tb.nic_bandwidth == 117.5 * MB  # measured TCP throughput
        assert tb.network_latency == 1e-4  # ~0.1 ms
        assert tb.disk_read_bandwidth == 55 * MB

    def test_image_matches_eval(self):
        img = DEFAULT.image
        assert img.size == 2 * GiB
        assert img.chunk_size == 256 * KiB
        # ~12 GB PVFS traffic for 110 instances -> ~109 MiB touched per boot
        assert 100 * MiB <= img.boot_touched_bytes <= 120 * MiB

    def test_boot_skew_sources(self):
        boot = DEFAULT.boot
        # randomized hypervisor init spans enough to create ~100 ms skews
        assert boot.hypervisor_init_max - boot.hypervisor_init_min >= 0.5
        assert boot.cpu_seconds > 0

    def test_fuse_asymmetries(self):
        fuse = DEFAULT.fuse
        assert fuse.mmap_write_bandwidth > 1.5 * fuse.hypervisor_write_bandwidth
        assert fuse.per_op_overhead > fuse.local_per_op_overhead
        assert fuse.data_op_overhead < fuse.per_op_overhead

    def test_frozen_immutable(self):
        import pytest

        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT.testbed.nic_bandwidth = 1.0


class TestOverrides:
    def test_custom_image_spec(self):
        calib = Calibration(
            image=ImageSpec(size=64 * MiB, chunk_size=64 * KiB, boot_touched_bytes=8 * MiB)
        )
        assert calib.image.size == 64 * MiB
        assert calib.testbed == DEFAULT.testbed  # other sections untouched

    def test_custom_testbed(self):
        calib = Calibration(testbed=CalibTestbed(disk_seek_time=0.001))
        assert calib.testbed.disk_seek_time == 0.001
        assert calib.image == DEFAULT.image
