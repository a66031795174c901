"""Tests for the no-prefetch ablation of mirroring strategy 1 (§3.3)."""

import pytest

from repro.blobseer import BlobSeerDeployment
from repro.common.payload import Payload
from repro.common.units import KiB
from repro.core import MirrorVFS
from repro.simkit.host import Fabric

CHUNK = 4 * KiB
IMG = 8 * CHUNK


def pattern(n, seed=1):
    return bytes((i * 131 + seed * 17) % 256 for i in range(n))


def setup(prefetch):
    fab = Fabric(seed=23)
    hosts = [fab.add_host(f"node{i}") for i in range(4)]
    manager = fab.add_host("manager")
    dep = BlobSeerDeployment(fab, hosts, hosts, manager)
    data = pattern(IMG)
    rec = dep.seed_blob(Payload.from_bytes(data), CHUNK)
    vfs = MirrorVFS(hosts[0], dep.client(hosts[0]), full_chunk_prefetch=prefetch)
    return fab, dep, rec, data, vfs


def run(fab, gen):
    return fab.run(fab.env.process(gen))


class TestNoPrefetchCorrectness:
    def test_reads_still_correct(self):
        fab, dep, rec, data, vfs = setup(prefetch=False)

        def scenario():
            h = yield from vfs.open(rec.blob_id, rec.version)
            out = []
            for off, ln in [(0, 100), (CHUNK - 10, 30), (3 * CHUNK + 7, 2 * CHUNK)]:
                p = yield from h.read(off, ln)
                out.append((off, ln, p.to_bytes()))
            return out

        for off, ln, got in run(fab, scenario()):
            assert got == data[off : off + ln]

    def test_only_requested_bytes_mirrored(self):
        fab, dep, rec, data, vfs = setup(prefetch=False)

        def scenario():
            h = yield from vfs.open(rec.blob_id, rec.version)
            yield from h.read(10, 50)
            return h

        h = run(fab, scenario())
        assert h.modmgr.mirrored_bytes() == 50  # exactly, no chunk rounding

    def test_scattered_reads_fragment_chunk(self):
        fab, dep, rec, data, vfs = setup(prefetch=False)

        def scenario():
            h = yield from vfs.open(rec.blob_id, rec.version)
            yield from h.read(0, 10)
            yield from h.read(100, 10)  # same chunk, disjoint: fragments
            fragmented = h.modmgr.mirrored_intervals(0)
            p = yield from h.read(0, 110)  # gap must be fetched now
            return h, p, fragmented

        h, p, fragmented = run(fab, scenario())
        assert p.to_bytes() == data[:110]
        assert fragmented == [(0, 10), (100, 110)]
        assert h.modmgr.mirrored_intervals(0) == [(0, 110)]  # the fill healed it
        assert h.modmgr.mirrored_bytes() == 110

    def test_fragmented_mirror_survives_close_and_reopen(self):
        """The ablation's manager is restored as one: it does not start enforcing."""
        fab, dep, rec, data, vfs = setup(prefetch=False)

        def scenario():
            h = yield from vfs.open(rec.blob_id, rec.version, path="/m")
            yield from h.read(0, 10)
            yield from h.read(100, 10)
            yield from h.read(CHUNK, 10)  # a second chunk, not fragmented
            yield from h.close()
            h2 = yield from vfs.open(rec.blob_id, rec.version, path="/m")  # raised before
            remote = fab.metrics.counters["mirror-remote-read"]
            p = yield from h2.read(100, 10)
            assert fab.metrics.counters["mirror-remote-read"] == remote  # restored: local
            yield from h2.read(CHUNK + 200, 10)  # fragments after the re-open, too
            return h2, p

        h2, p = run(fab, scenario())
        assert p.to_bytes() == data[100:110]
        assert not h2.modmgr.enforce_contiguity
        assert h2.modmgr.mirrored_intervals(0) == [(0, 10), (100, 110)]
        assert h2.modmgr.mirrored_intervals(1) == [(CHUNK, CHUNK + 10), (CHUNK + 200, CHUNK + 210)]

    def test_reopen_with_prefetch_keeps_enforcing(self):
        fab, dep, rec, data, vfs = setup(prefetch=True)

        def scenario():
            h = yield from vfs.open(rec.blob_id, rec.version, path="/m")
            yield from h.write(10, Payload.from_bytes(b"w"))
            yield from h.close()
            return (yield from vfs.open(rec.blob_id, rec.version, path="/m"))

        assert run(fab, scenario()).modmgr.enforce_contiguity

    def test_writes_and_commit_still_work(self):
        fab, dep, rec, data, vfs = setup(prefetch=False)

        def scenario():
            h = yield from vfs.open(rec.blob_id, rec.version)
            yield from h.read(0, 16)
            yield from h.write(100, Payload.from_bytes(b"frag"))
            yield from h.ioctl_clone()
            snap = yield from h.ioctl_commit()
            reader = dep.client(fab.hosts["node2"])
            img = yield from reader.read(snap.blob_id, snap.version, 0, IMG)
            return img

        img = run(fab, scenario())
        expected = bytearray(data)
        expected[100:104] = b"frag"
        assert img.to_bytes() == bytes(expected)


def setup_big(prefetch):
    """Variant with 64 KiB chunks so chunk transfers dominate traffic."""
    fab = Fabric(seed=29)
    hosts = [fab.add_host(f"node{i}") for i in range(4)]
    manager = fab.add_host("manager")
    dep = BlobSeerDeployment(fab, hosts, hosts, manager)
    rec = dep.seed_blob(Payload.opaque("img", 8 * 64 * KiB), 64 * KiB)
    vfs = MirrorVFS(hosts[0], dep.client(hosts[0]), full_chunk_prefetch=prefetch)
    return fab, dep, rec, vfs


class TestPrefetchComparison:
    def _correlated_reads(self, vfs, rec):
        def scenario():
            base = 64 * KiB  # chunk 1: stored on node1, remote from node0
            h = yield from vfs.open(rec.blob_id, rec.version)
            # three correlated reads inside the same chunk neighbourhood
            yield from h.read(base, 1024)
            yield from h.read(base + 8 * 1024, 1024)
            yield from h.read(base + 32 * 1024, 1024)

        return scenario()

    def test_prefetch_fewer_remote_trips(self):
        fab1, dep1, rec1, vfs1 = setup_big(prefetch=True)
        run(fab1, self._correlated_reads(vfs1, rec1))
        trips_prefetch = fab1.metrics.counters["mirror-remote-read"]

        fab2, dep2, rec2, vfs2 = setup_big(prefetch=False)
        run(fab2, self._correlated_reads(vfs2, rec2))
        trips_exact = fab2.metrics.counters["mirror-remote-read"]
        assert trips_prefetch == 1  # first read fetched the whole chunk
        assert trips_exact == 3  # every read went remote

    def test_prefetch_more_traffic_less_time(self):
        fab1, dep1, rec1, vfs1 = setup_big(prefetch=True)
        run(fab1, self._correlated_reads(vfs1, rec1))
        fab2, dep2, rec2, vfs2 = setup_big(prefetch=False)
        run(fab2, self._correlated_reads(vfs2, rec2))
        # the prefetch moved the whole 64 KiB chunk; exact mode moved 3 KiB
        assert fab1.metrics.total_traffic() > 5 * fab2.metrics.total_traffic()
        assert fab1.env.now < fab2.env.now  # fewer round trips win
