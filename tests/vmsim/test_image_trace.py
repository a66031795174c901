"""Tests for image layout and boot-trace generation."""

import zlib

import numpy as np
import pytest

from repro.calibration import BootModel
from repro.common.errors import SimulationError
from repro.common.rng import RngStreams
from repro.common.units import KiB, MiB
from repro.vmsim.boottrace import READ, WRITE, boot_trace, cut_points
from repro.vmsim.image import make_image


class TestMakeImage:
    def test_hot_set_totals(self):
        img = make_image(256 * MiB, 24 * MiB, n_regions=32)
        total = sum(r.size for r in img.hot_regions)
        # integer truncation/min-size clamping keeps it within a few percent
        assert 0.95 * 24 * MiB <= total <= 1.2 * 24 * MiB
        assert len(img.hot_regions) == 32

    def test_boot_sector_first(self):
        img = make_image(64 * MiB, 8 * MiB, n_regions=16)
        assert img.hot_regions[0].offset == 0
        assert img.hot_regions[0].size == 4 * KiB

    def test_regions_disjoint_and_ordered(self):
        img = make_image(256 * MiB, 32 * MiB, n_regions=48)
        prev_end = -1
        for r in img.hot_regions:
            assert r.offset > prev_end or prev_end == -1
            assert r.offset + r.size <= img.size
            prev_end = r.offset + r.size

    def test_deterministic_by_tag_and_seed(self):
        a = make_image(64 * MiB, 8 * MiB, tag="x", seed=3)
        b = make_image(64 * MiB, 8 * MiB, tag="x", seed=3)
        c = make_image(64 * MiB, 8 * MiB, tag="y", seed=3)
        assert a.hot_regions == b.hot_regions
        assert a.hot_regions != c.hot_regions

    def test_hot_set_must_fit(self):
        with pytest.raises(SimulationError):
            make_image(8 * MiB, 8 * MiB)

    def test_write_base_inside_image(self):
        img = make_image(256 * MiB, 24 * MiB)
        assert 0 < img.write_base < img.size


class TestBootTrace:
    def _trace(self, seed=0, model=None):
        img = make_image(256 * MiB, 24 * MiB, n_regions=32)
        model = model or BootModel()
        return img, boot_trace(img, model, np.random.default_rng(seed)), model

    def test_reads_cover_hot_set(self):
        img, ops, model = self._trace()
        read_bytes = sum(n for k, n in zip(ops.kinds, ops.sizes) if k == READ)
        assert read_bytes == sum(r.size for r in img.hot_regions)

    def test_write_volume_matches_model(self):
        img, ops, model = self._trace()
        write_bytes = sum(n for k, n in zip(ops.kinds, ops.sizes) if k == WRITE)
        assert ops.kinds.count(WRITE) == model.write_ops
        assert write_bytes == pytest.approx(model.write_bytes, rel=0.1)

    def test_cpu_time_matches_model(self):
        img, ops, model = self._trace()
        # I/O ops carry duration 0.0: the column sums the CPU bursts
        assert sum(ops.durations) == pytest.approx(model.cpu_seconds, rel=1e-6)

    def test_boot_sector_is_first_read(self):
        img, ops, _ = self._trace()
        first_read = next(o for o in ops if o.kind == "read")
        assert first_read.offset == 0

    def test_cpu_interleaved_between_ios(self):
        img, ops, _ = self._trace()
        kinds = [o.kind for o in ops]
        for a, b in zip(kinds, kinds[1:]):
            assert not (a != "cpu" and b != "cpu"), "two I/Os without a CPU burst"

    def test_traces_jittered_but_same_volume(self):
        img = make_image(256 * MiB, 24 * MiB, n_regions=32)
        t1 = boot_trace(img, BootModel(), np.random.default_rng(1))
        t2 = boot_trace(img, BootModel(), np.random.default_rng(2))
        assert t1.durations != t2.durations

        def read_bytes(t):
            return sum(n for k, n in zip(t.kinds, t.sizes) if k == READ)

        assert read_bytes(t1) == read_bytes(t2)

    def test_reads_within_image(self):
        img, ops, _ = self._trace()
        for o in ops:
            if o.kind in ("read", "write"):
                assert 0 <= o.offset
                assert o.offset + o.nbytes <= img.size


class TestTraceGenerationIsPinned:
    """The generator was rewritten for host speed; its output may not move."""

    def test_cut_points_equal_numpy_linspace_bit_for_bit(self):
        rng = np.random.default_rng(0)
        sizes = np.where(
            rng.random(200_000) < 0.5,
            rng.integers(1, 2**40, 200_000),
            rng.integers(1, 2**22, 200_000),
        ).tolist()
        for size, n_sub in zip(sizes, rng.integers(1, 9, 200_000).tolist()):
            want = np.linspace(0, size, n_sub + 1).astype(np.int64).tolist()
            assert cut_points(size, n_sub) == want, (size, n_sub)

    def test_golden_crc_over_eight_traces_of_one_seed(self):
        # recorded from the dataclass + np.linspace generator; covers every
        # op field and where each trace leaves its RNG stream (re-recorded
        # on that same generator when the per-trace aggregate left the hash)
        image = make_image(2048 * MiB, 96 * MiB)
        streams = RngStreams(7)
        crc = 0
        for i in range(8):
            rng = streams.get("trace", "mirror", i)
            ops = boot_trace(image, BootModel(), rng)
            for op in ops:
                fields = (op.kind, op.offset, op.nbytes, op.duration)
                crc = zlib.crc32(repr(fields).encode(), crc)
            crc = zlib.crc32(repr(float(rng.random())).encode(), crc)
        assert crc == 0x5E72AB82
