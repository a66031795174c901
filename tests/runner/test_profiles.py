"""Profile name table, env-var validation, and each profile's calibration."""

import dataclasses

import pytest

from repro.calibration import DEFAULT, SnapshotModel
from repro.common.units import KiB, MB, MiB
from repro.runner import (
    CHURN,
    CHURN_SMOKE,
    LINEAGE,
    LINEAGE_SMOKE,
    PAPER,
    QUICK,
    SCALE,
    SCALE_SMOKE,
    active_profile,
    build_point_cloud,
    resolve_profile,
)
from repro.runner.profiles import NVME, PROFILE_ENV, TOPO, TOPO_SMOKE


class TestActiveProfile:
    def test_default_is_paper(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert active_profile() is PAPER

    def test_quick_selected(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "quick")
        assert active_profile() is QUICK

    def test_empty_value_means_default(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "")
        assert active_profile() is PAPER

    def test_unrecognized_value_raises_with_known_list(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "qiuck")
        with pytest.raises(ValueError) as err:
            active_profile()
        message = str(err.value)
        assert "qiuck" in message
        assert "paper" in message and "quick" in message


class TestRegistry:
    """The static name table behind ``--profile`` and ``REPRO_BENCH_PROFILE``."""

    def test_resolve_known(self):
        assert resolve_profile("paper") is PAPER
        assert resolve_profile("quick") is QUICK

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="known profiles"):
            resolve_profile("nope")


class TestCalibrationOverrides:
    """A profile sets a calibration value one way: in its own Calibration."""

    def test_point_cloud_runs_under_the_calibration_of_its_profile(self):
        cloud, image = build_point_cloud(QUICK, seed=1, with_pvfs=False)
        assert cloud.calib is QUICK.calib
        assert image.size == QUICK.calib.image.size == 512 * MiB
        assert QUICK.calib.image.chunk_size == 256 * KiB
        # the sections the profile leaves alone keep the paper's values
        assert QUICK.calib.testbed == DEFAULT.testbed

    def test_snapshot_diff_bytes_is_not_a_calibration_field(self):
        # every point reads the profile's diff_bytes; the calibration has none
        assert "diff_bytes" not in {f.name for f in dataclasses.fields(SnapshotModel)}
        assert QUICK.diff_bytes == 6 * MiB

    def test_nvme_profiles_share_one_testbed(self):
        for profile in (SCALE, SCALE_SMOKE, CHURN_SMOKE, LINEAGE, LINEAGE_SMOKE,
                        TOPO, TOPO_SMOKE):
            assert profile.calib.testbed is NVME, profile.name
        # churn rate-limits the tenant NIC on the same disks and runs a
        # stripped-down guest
        assert CHURN.calib.testbed == dataclasses.replace(NVME, nic_bandwidth=50 * MB)
        assert CHURN.calib.boot.cpu_seconds == 0.5
