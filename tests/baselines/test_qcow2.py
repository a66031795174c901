"""Tests for the qcow2-like copy-on-write image format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.qcow2 import HEADER_BYTES, Qcow2Image
from repro.common.errors import ImageFormatError, OutOfRangeError
from repro.common.payload import Payload

CL = 64  # small clusters for tests
IMG = 8 * CL


def pattern(n, seed=1):
    return bytes((i * 131 + seed * 17) % 256 for i in range(n))


def backed_image(data=None, size=IMG, cluster=CL):
    data = data if data is not None else pattern(size)
    backing = Payload.from_bytes(data)

    reads = []

    def backing_read(off, n):
        reads.append((off, n))
        return backing.slice(off, off + n)

    img = Qcow2Image(size, backing_read, cluster_size=cluster)
    return img, data, reads


class TestRead:
    def test_unallocated_falls_through_to_backing(self):
        img, data, reads = backed_image()
        payload, report = img.read(10, 100)
        assert payload.to_bytes() == data[10:110]
        assert report.backing_reads == [(10, 54), (64, 46)]
        assert report.local_read_bytes == 0

    def test_no_backing_reads_zeros(self):
        img = Qcow2Image(IMG, None, cluster_size=CL)
        payload, report = img.read(0, 100)
        assert payload.to_bytes() == b"\x00" * 100
        assert report.backing_reads == []

    def test_backing_not_cached_reads_repeat(self):
        """qcow2 never localizes on read — every read hits the backing file."""
        img, data, reads = backed_image()
        img.read(0, 10)
        img.read(0, 10)
        assert reads == [(0, 10), (0, 10)]

    def test_out_of_range(self):
        img, _, _ = backed_image()
        with pytest.raises(OutOfRangeError):
            img.read(IMG - 5, 10)

    def test_invalid_sizes(self):
        with pytest.raises(ImageFormatError):
            Qcow2Image(0, None)


class TestWrite:
    def test_full_cluster_write_no_cow_read(self):
        img, data, reads = backed_image()
        report = img.write(CL, Payload.from_bytes(b"x" * CL))
        assert report.backing_reads == []
        assert report.clusters_allocated == 1
        assert report.local_write_bytes == CL

    def test_partial_write_triggers_cow(self):
        img, data, reads = backed_image()
        report = img.write(CL + 10, Payload.from_bytes(b"yy"))
        assert report.backing_reads == [(CL, CL)]
        assert report.clusters_allocated == 1
        payload, r2 = img.read(CL, CL)
        expected = bytearray(data[CL : 2 * CL])
        expected[10:12] = b"yy"
        assert payload.to_bytes() == bytes(expected)
        assert r2.backing_reads == []  # now allocated: served locally

    def test_second_write_same_cluster_no_realloc(self):
        img, _, _ = backed_image()
        img.write(0, Payload.from_bytes(b"a"))
        report = img.write(5, Payload.from_bytes(b"b"))
        assert report.clusters_allocated == 0
        assert report.backing_reads == []

    def test_write_spanning_clusters(self):
        img, data, _ = backed_image()
        span = Payload.from_bytes(pattern(CL + 20, seed=7))
        report = img.write(CL - 10, span)
        # spans clusters 0 (tail), 1 (full) and 2 (head): 3 allocations,
        # CoW backing reads for the two partially covered ones
        assert report.clusters_allocated == 3
        assert report.backing_reads == [(0, CL), (2 * CL, CL)]
        payload, _ = img.read(CL - 10, CL + 20)
        assert payload.to_bytes() == pattern(CL + 20, seed=7)

    def test_read_mixes_allocated_and_backing(self):
        img, data, _ = backed_image()
        img.write(CL, Payload.from_bytes(b"Z" * CL))
        payload, report = img.read(0, 3 * CL)
        expected = bytearray(data[: 3 * CL])
        expected[CL : 2 * CL] = b"Z" * CL
        assert payload.to_bytes() == bytes(expected)
        assert report.backing_reads == [(0, CL), (2 * CL, CL)]
        assert report.local_read_bytes == CL


class TestAccounting:
    def test_file_bytes_counts_allocated_plus_header(self):
        img, _, _ = backed_image()
        assert img.serialize()[0].size == HEADER_BYTES
        img.write(0, Payload.from_bytes(b"x"))
        assert img.serialize()[0].size == HEADER_BYTES + CL
        img.write(3 * CL, Payload.from_bytes(b"y" * CL))
        assert img.serialize()[0].size == HEADER_BYTES + 2 * CL

    def test_tail_cluster_short(self):
        img = Qcow2Image(CL + 10, None, cluster_size=CL)
        img.write(CL, Payload.from_bytes(b"ab"))
        assert img.serialize()[0].size == HEADER_BYTES + 10


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["read", "write"]),
            st.integers(0, IMG - 1),
            st.integers(1, 2 * CL),
        ),
        max_size=20,
    )
)
def test_matches_flat_model(ops):
    """qcow2 over a backing image behaves like a plain mutable buffer."""
    img, data, _ = backed_image()
    model = bytearray(data)
    for kind, off, ln in ops:
        ln = min(ln, IMG - off)
        if kind == "read":
            payload, _ = img.read(off, ln)
            assert payload.to_bytes() == bytes(model[off : off + ln])
        else:
            content = pattern(ln, seed=off + ln)
            img.write(off, Payload.from_bytes(content))
            model[off : off + ln] = content
    assert img.read(0, IMG)[0].to_bytes() == bytes(model)
