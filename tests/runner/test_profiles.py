"""Profile registry, env-var validation, and calibration overrides."""

import pytest

from repro.runner import (
    PAPER,
    QUICK,
    active_profile,
    apply_overrides,
    known_profiles,
    profile_calibration,
    resolve_profile,
)
from repro.runner.profiles import PROFILE_ENV


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
    def test_resolve_known(self):
        assert resolve_profile("paper") is PAPER
        assert resolve_profile("quick") is QUICK

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="known profiles"):
            resolve_profile("nope")

    def test_register_and_resolve(self, micro_profile):
        assert resolve_profile(micro_profile.name) is micro_profile
        assert micro_profile.name in known_profiles()
        # registered profiles become valid env-var values too
        import os
        os.environ[PROFILE_ENV] = micro_profile.name
        try:
            assert active_profile() is micro_profile
        finally:
            del os.environ[PROFILE_ENV]


class TestCalibrationOverrides:
    def test_profile_calibration_uses_profile_image(self):
        calib = profile_calibration(QUICK)
        assert calib.image.size == QUICK.image_size
        assert calib.image.chunk_size == QUICK.chunk_size
        assert calib.image.boot_touched_bytes == QUICK.touched_bytes

    def test_override_applied(self):
        calib = profile_calibration(QUICK, (("image.chunk_size", 4096),))
        assert calib.image.chunk_size == 4096
        assert calib.image.size == QUICK.image_size  # untouched fields survive

    def test_override_other_section(self):
        calib = profile_calibration(QUICK, (("snapshot.montecarlo_state_bytes", 123),))
        assert calib.snapshot.montecarlo_state_bytes == 123

    def test_snapshot_diff_bytes_is_not_a_calibration_field(self):
        # every point reads the profile's diff_bytes; the override is refused
        with pytest.raises(ValueError, match="bad calibration override"):
            profile_calibration(QUICK, (("snapshot.diff_bytes", 123),))

    def test_bad_override_path_raises(self):
        with pytest.raises(ValueError, match="override"):
            profile_calibration(QUICK, (("image.no_such_field", 1),))
        with pytest.raises(ValueError, match="override"):
            profile_calibration(QUICK, (("nodots", 1),))

    def test_apply_overrides_does_not_mutate(self):
        base = profile_calibration(QUICK)
        out = apply_overrides(base, (("image.chunk_size", 1024),))
        assert base.image.chunk_size == QUICK.chunk_size
        assert out.image.chunk_size == 1024
