"""End-to-end tests of the mirroring VFS over a BlobSeer deployment."""

import pytest

from repro.blobseer import BlobSeerDeployment
from repro.common.errors import MirrorStateError, StorageError
from repro.common.payload import Payload
from repro.common.units import KiB
from repro.core import MirrorVFS, mount
from repro.obs import install_tracer
from repro.simkit.host import Fabric

CHUNK = 4 * KiB
IMG = 8 * CHUNK


def pattern(n, seed=1):
    return bytes((i * 131 + seed * 17) % 256 for i in range(n))


def setup_cloud(n_nodes=4, seed=3, image=None):
    fab = Fabric(seed=seed)
    hosts = [fab.add_host(f"node{i}") for i in range(n_nodes)]
    manager = fab.add_host("manager")
    dep = BlobSeerDeployment(fab, hosts, hosts, manager)
    data = image if image is not None else pattern(IMG)
    rec = dep.seed_blob(Payload.from_bytes(data), CHUNK)
    return fab, dep, hosts, rec, data


def run(fab, gen):
    return fab.run(fab.env.process(gen))


class TestLazyMirroring:
    def test_read_matches_source(self):
        fab, dep, hosts, rec, data = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            p = yield from h.read(100, 1000)
            return p

        assert run(fab, scenario()).to_bytes() == data[100:1100]

    def test_only_touched_chunks_fetched(self):
        fab, dep, hosts, rec, data = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            yield from h.read(0, 10)  # one chunk
            return h

        h = run(fab, scenario())
        assert h.modmgr.mirrored_bytes() == CHUNK  # full chunk prefetched
        assert fab.metrics.counters["mirror-chunks-fetched"] == 1

    def test_second_read_same_chunk_is_local(self):
        fab, dep, hosts, rec, data = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            yield from h.read(0, 10)
            remote_before = fab.metrics.counters["mirror-remote-read"]
            p = yield from h.read(CHUNK - 50, 50)  # same chunk, different region
            return remote_before, p

        remote_before, p = run(fab, scenario())
        assert fab.metrics.counters["mirror-remote-read"] == remote_before
        assert p.to_bytes() == data[CHUNK - 50 : CHUNK]

    def test_writes_stay_local(self):
        fab, dep, hosts, rec, data = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            yield from h.write(10, Payload.from_bytes(b"LOCAL"))
            p = yield from h.read(8, 10)
            return h, p

        h, p = run(fab, scenario())
        # read-your-writes; rest of the chunk fetched remotely around it
        expected = bytearray(data[8:18])
        expected[2:7] = b"LOCAL"
        assert p.to_bytes() == bytes(expected)
        # repository content untouched before COMMIT
        assert dep.stored_bytes() == IMG

    def test_write_gap_fill_keeps_invariant_and_content(self):
        fab, dep, hosts, rec, data = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            yield from h.write(100, Payload.from_bytes(b"A" * 10))
            yield from h.write(300, Payload.from_bytes(b"B" * 10))  # gap (110,300)
            p = yield from h.read(90, 250)
            return h, p

        h, p = run(fab, scenario())
        assert fab.metrics.counters["mirror-gap-fill"] == 1
        expected = bytearray(data[90:340])
        expected[10:20] = b"A" * 10
        expected[210:220] = b"B" * 10
        assert p.to_bytes() == bytes(expected[:250])
        lo, hi = h.modmgr.mirrored_interval(0)
        assert (lo, hi) == (100, 310) or (lo, hi) == (0, CHUNK)

    def test_out_of_range_io_rejected(self):
        fab, dep, hosts, rec, _ = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            with pytest.raises(MirrorStateError):
                yield from h.read(IMG - 10, 20)
            with pytest.raises(MirrorStateError):
                yield from h.write(IMG, Payload.from_bytes(b"x"))
            return True

        assert run(fab, scenario())


class TestCloneCommit:
    def test_commit_publishes_standalone_snapshot(self):
        fab, dep, hosts, rec, data = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            yield from h.write(CHUNK + 5, Payload.from_bytes(b"MODIFIED"))
            clone_rec = yield from h.ioctl_clone()
            commit_rec = yield from h.ioctl_commit()
            # snapshot readable as a standalone raw image from another node
            reader = dep.client(hosts[2])
            img = yield from reader.read(
                commit_rec.blob_id, commit_rec.version, 0, IMG
            )
            return clone_rec, commit_rec, img

        clone_rec, commit_rec, img = run(fab, scenario())
        assert clone_rec.blob_id != rec.blob_id
        assert commit_rec.blob_id == clone_rec.blob_id
        assert commit_rec.version == clone_rec.version + 1
        expected = bytearray(data)
        expected[CHUNK + 5 : CHUNK + 13] = b"MODIFIED"
        assert img.to_bytes() == bytes(expected)

    def test_commit_stores_only_diff(self):
        fab, dep, hosts, rec, data = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            yield from h.write(0, Payload.from_bytes(b"x" * 100))
            yield from h.ioctl_clone()
            yield from h.ioctl_commit()

        run(fab, scenario())
        # one dirty chunk stored beyond the base image
        assert dep.stored_bytes() == IMG + CHUNK

    def test_consecutive_commits_total_order(self):
        fab, dep, hosts, rec, data = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            yield from h.ioctl_clone()
            yield from h.write(0, Payload.from_bytes(b"v2"))
            r2 = yield from h.ioctl_commit()
            yield from h.write(CHUNK, Payload.from_bytes(b"v3"))
            r3 = yield from h.ioctl_commit()
            reader = dep.client(hosts[1])
            img2 = yield from reader.read(r2.blob_id, r2.version, 0, 2 * CHUNK)
            img3 = yield from reader.read(r3.blob_id, r3.version, 0, 2 * CHUNK)
            return r2, r3, img2, img3

        r2, r3, img2, img3 = run(fab, scenario())
        assert r3.version == r2.version + 1
        exp2 = bytearray(data[: 2 * CHUNK])
        exp2[0:2] = b"v2"
        assert img2.to_bytes() == bytes(exp2)
        exp3 = bytearray(exp2)
        exp3[CHUNK : CHUNK + 2] = b"v3"
        assert img3.to_bytes() == bytes(exp3)

    def test_commit_without_clone_targets_source_blob(self):
        fab, dep, hosts, rec, data = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            yield from h.write(0, Payload.from_bytes(b"direct"))
            r = yield from h.ioctl_commit()
            return r

        r = run(fab, scenario())
        assert r.blob_id == rec.blob_id
        assert r.version == rec.version + 1

    def test_empty_commit_is_noop(self):
        fab, dep, hosts, rec, _ = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            yield from h.ioctl_clone()
            r1 = yield from h.ioctl_commit()
            return r1

        r1 = run(fab, scenario())
        assert fab.metrics.counters["ioctl-commit"] == 0
        assert r1.version == 1  # clone's first snapshot, nothing new published

    def test_commit_gap_fills_partial_chunks(self):
        """A dirty chunk written only partially must be completed before COMMIT."""
        fab, dep, hosts, rec, data = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            yield from h.write(10, Payload.from_bytes(b"tiny"))
            yield from h.ioctl_clone()
            r = yield from h.ioctl_commit()
            reader = dep.client(hosts[1])
            img = yield from reader.read(r.blob_id, r.version, 0, CHUNK)
            return img

        img = run(fab, scenario())
        assert fab.metrics.counters["commit-gap-fill"] == 1
        expected = bytearray(data[:CHUNK])
        expected[10:14] = b"tiny"
        assert img.to_bytes() == bytes(expected)

    def test_snapshots_of_many_instances_share_content(self):
        """Multisnapshotting: N clones with small diffs stay near IMG + N*diff."""
        fab, dep, hosts, rec, data = setup_cloud()

        def one_vm(node, i):
            h = yield from mount(node, dep, rec.blob_id, rec.version, path=f"/m{i}")
            yield from h.write(i * CHUNK, Payload.from_bytes(pattern(64, seed=i)))
            yield from h.ioctl_clone()
            yield from h.ioctl_commit()

        procs = [fab.env.process(one_vm(hosts[i], i)) for i in range(4)]
        fab.run(fab.env.all_of(procs))
        assert dep.stored_bytes() == IMG + 4 * CHUNK


class TestCommitKeepsWhatItDidNotPublish:
    def test_write_landing_during_commit_stays_dirty(self):
        """COMMIT clears what it collected, not what was dirtied meanwhile."""
        fab, dep, hosts, rec, data = setup_cloud()
        out = {}

        def late_writer(h):
            yield fab.env.timeout(1e-4)  # the COMMIT is collecting / pushing by now
            assert "first" not in out
            yield from h.write(3 * CHUNK, Payload.from_bytes(b"late" * 25))

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            yield from h.write(0, Payload.from_bytes(b"x" * 100))
            yield from h.ioctl_clone()
            writer = fab.env.process(late_writer(h))
            out["first"] = yield from h.ioctl_commit()
            yield writer
            out["dirty_after_first"] = h.modmgr.dirty_chunks()
            out["second"] = yield from h.ioctl_commit()
            out["dirty_after_second"] = h.modmgr.dirty_chunks()
            reader = dep.client(hosts[2])
            first, second = out["first"], out["second"]
            out["chunk3_first"] = yield from reader.read(
                first.blob_id, first.version, 3 * CHUNK, CHUNK
            )
            out["chunk3_second"] = yield from reader.read(
                second.blob_id, second.version, 3 * CHUNK, CHUNK
            )
            out["chunk0_second"] = yield from reader.read(second.blob_id, second.version, 0, 100)

        run(fab, scenario())
        assert out["dirty_after_first"] == [3]
        assert out["dirty_after_second"] == []
        assert out["second"].version == out["first"].version + 1
        base3 = data[3 * CHUNK : 4 * CHUNK]
        assert out["chunk3_first"].to_bytes() == base3  # not collected: not published
        assert out["chunk3_second"].to_bytes() == b"late" * 25 + base3[100:]
        assert out["chunk0_second"].to_bytes() == b"x" * 100
        assert fab.metrics.counters["commit-chunks"] == 2  # chunk 0 once, chunk 3 once

    def test_rewrite_of_a_collected_range_stays_dirty(self):
        """The same bytes written again mid-COMMIT are new content all the same."""
        fab, dep, hosts, rec, data = setup_cloud()
        out = {}

        def late_writer(h):
            yield fab.env.timeout(1e-4)
            yield from h.write(0, Payload.from_bytes(b"y" * 100))

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            yield from h.write(0, Payload.from_bytes(b"x" * 100))
            yield from h.ioctl_clone()
            writer = fab.env.process(late_writer(h))
            yield from h.ioctl_commit()
            yield writer
            out["dirty"] = h.modmgr.dirty_intervals(0)
            snap = yield from h.ioctl_commit()
            reader = dep.client(hosts[2])
            out["published"] = yield from reader.read(snap.blob_id, snap.version, 0, 100)

        run(fab, scenario())
        assert out["dirty"] == [(0, 100)]
        assert out["published"].to_bytes() == b"y" * 100

    def test_failed_commit_gives_its_ranges_back(self):
        fab, dep, hosts, rec, data = setup_cloud()
        out = {}

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version)
            yield from h.write(10, Payload.from_bytes(b"keep"))
            yield from h.ioctl_clone()
            publish = h.vfs.client.write_chunks

            def refused(*args, **kwargs):
                yield fab.env.timeout(1e-3)
                yield from h.write(CHUNK, Payload.from_bytes(b"meanwhile"))
                raise StorageError("providers refused the chunks")

            h.vfs.client.write_chunks = refused
            with pytest.raises(StorageError):
                yield from h.ioctl_commit()
            out["dirty"] = {idx: h.modmgr.dirty_intervals(idx) for idx in h.modmgr.dirty_chunks()}
            h.vfs.client.write_chunks = publish
            snap = yield from h.ioctl_commit()
            reader = dep.client(hosts[1])
            out["published"] = yield from reader.read(snap.blob_id, snap.version, 0, 2 * CHUNK)

        run(fab, scenario())
        assert out["dirty"] == {0: [(10, 14)], 1: [(CHUNK, CHUNK + 9)]}
        expected = bytearray(data[: 2 * CHUNK])
        expected[10:14] = b"keep"
        expected[CHUNK : CHUNK + 9] = b"meanwhile"
        assert out["published"].to_bytes() == bytes(expected)


class TestWriteDuringFetchSurvives:
    """Fetched bytes fill what is unmirrored when they arrive, not when planned.

    Every fetch plans its gaps first and applies them ~10 ms of simulated
    time later; a guest write that lands in between (the prefetcher reads on
    the handle a booting guest writes to) must not be overwritten.
    """

    BASE = 2 * CHUNK

    def race(self, fetcher, write_at, setup=None, prefetch=True, traced=False):
        """Run ``fetcher(h)`` against a 50-byte write 0.1 ms after it starts."""
        fab, dep, hosts, rec, data = setup_cloud()
        tracer = install_tracer(fab) if traced else None
        out = {"data": data, "dep": dep, "hosts": hosts, "fab": fab, "tracer": tracer}

        def late_writer(h):
            yield fab.env.timeout(1e-4)
            yield from h.write(write_at, Payload.from_bytes(b"W" * 50))
            out["write_done"] = fab.env.now

        def scenario():
            vfs = MirrorVFS(hosts[0], dep.client(hosts[0]), full_chunk_prefetch=prefetch)
            h = out["h"] = yield from vfs.open(rec.blob_id, rec.version)
            if setup is not None:
                yield from setup(h)
            writer = fab.env.process(late_writer(h))
            out["fetched"] = yield from fetcher(h)
            out["fetch_done"] = fab.env.now
            yield writer
            out["chunk"] = yield from h.read(self.BASE, CHUNK)

        run(fab, scenario())
        assert out["write_done"] < out["fetch_done"]  # the write really raced the fetch
        dirty = out["h"].modmgr.dirty_intervals(2)
        assert any(lo <= write_at and write_at + 50 <= hi for lo, hi in dirty)
        return out

    def expected_chunk(self, data, *writes):
        chunk = bytearray(data[self.BASE : self.BASE + CHUNK])
        for at, content in writes:
            chunk[at - self.BASE : at - self.BASE + len(content)] = content
        return bytes(chunk)

    def test_write_during_a_read_fetch(self):
        at = self.BASE + 100
        out = self.race(lambda h: h.read(self.BASE + 10, 20), at)
        assert out["fetched"].to_bytes() == out["data"][self.BASE + 10 : self.BASE + 30]
        assert out["chunk"].to_bytes() == self.expected_chunk(out["data"], (at, b"W" * 50))
        assert out["h"].modmgr.mirrored_intervals(2) == [(self.BASE, self.BASE + CHUNK)]

    def test_write_during_a_write_gap_fill(self):
        """A write adjacent to the mirror needs no fill of its own, so it is quick."""

        def setup(h):
            yield from h.write(self.BASE, Payload.from_bytes(b"a" * 10))

        far = self.BASE + 1000
        at = self.BASE + 10  # inside the gap [10, 1000) the far write fills
        out = self.race(lambda h: h.write(far, Payload.from_bytes(b"f" * 10)), at, setup)
        assert out["fab"].metrics.counters["mirror-gap-fill"] == 1
        assert out["chunk"].to_bytes() == self.expected_chunk(
            out["data"], (self.BASE, b"a" * 10), (at, b"W" * 50), (far, b"f" * 10)
        )

    def test_write_during_commit_completion(self):
        def setup(h):
            yield from h.write(self.BASE, Payload.from_bytes(b"a" * 100))
            yield from h.ioctl_clone()

        at = self.BASE + 100  # inside the gap [100, CHUNK) COMMIT fetches
        out = self.race(lambda h: h.ioctl_commit(), at, setup)
        want = self.expected_chunk(out["data"], (self.BASE, b"a" * 100), (at, b"W" * 50))
        assert out["chunk"].to_bytes() == want
        fab, h = out["fab"], out["h"]

        def republish():
            snap = yield from h.ioctl_commit()  # the late write stayed dirty
            reader = out["dep"].client(out["hosts"][2])
            got = yield from reader.read(snap.blob_id, snap.version, self.BASE, CHUNK)
            return snap, got

        snap, got = run(fab, republish())
        assert snap.version == out["fetched"].version + 1
        assert got.to_bytes() == want

    def test_write_during_an_exact_range_fetch(self):
        at = self.BASE + 100
        out = self.race(lambda h: h.read(self.BASE + 10, 2000), at, prefetch=False)
        want = self.expected_chunk(out["data"], (at, b"W" * 50))
        assert out["fetched"].to_bytes() == want[10:2010]  # read after the write landed
        assert out["chunk"].to_bytes() == want

    def test_traced_run_records_the_same_spans_on_the_same_timeline(self):
        at = self.BASE + 100
        plain = self.race(lambda h: h.read(self.BASE + 10, 20), at)
        traced = self.race(lambda h: h.read(self.BASE + 10, 20), at, traced=True)
        assert traced["fab"].env.now == plain["fab"].env.now
        assert traced["fetch_done"] == plain["fetch_done"]
        assert traced["chunk"].to_bytes() == plain["chunk"].to_bytes()
        vfs_spans = [
            (s.name, s.attrs, s.error, s.t0, s.t1)
            for s in traced["tracer"].spans
            if s.category == "vfs"
        ]
        read, fetch, write, readback = vfs_spans
        assert read == (
            "vfs:read", {"offset": self.BASE + 10, "nbytes": 20}, None,
            fetch[3], traced["fetch_done"],
        )
        assert fetch[:3] == ("mirror-fetch", {"chunks": 1}, None)
        assert write[3] < fetch[4] < read[4]  # closes once the bytes are applied
        assert write == (
            "vfs:write", {"offset": at, "nbytes": 50}, None,
            fetch[3] + 1e-4, traced["write_done"],
        )
        assert readback[:3] == ("vfs:read", {"offset": self.BASE, "nbytes": CHUNK}, None)
        by_name = {s.name: s for s in traced["tracer"].spans if s.category == "vfs"}
        assert by_name["mirror-fetch"].parent_id is not None  # nests under the vfs:read
        nested = [s for s in traced["tracer"].spans
                  if s.parent_id == by_name["mirror-fetch"].span_id]
        assert nested  # and the fetch's rpcs nest under it


class TestPersistenceAcrossOpen:
    def test_close_reopen_restores_state(self):
        fab, dep, hosts, rec, data = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version, path="/m")
            yield from h.write(5, Payload.from_bytes(b"persist"))
            yield from h.read(2 * CHUNK, 100)
            yield from h.close()
            with pytest.raises(MirrorStateError):
                yield from h.read(0, 1)
            h2 = yield from mount(hosts[0], dep, rec.blob_id, rec.version, path="/m")
            remote_before = fab.metrics.counters["mirror-remote-read"]
            p = yield from h2.read(5, 7)  # served locally: state restored
            return remote_before, p, h2

        remote_before, p, h2 = run(fab, scenario())
        assert p.to_bytes() == b"persist"
        assert fab.metrics.counters["mirror-remote-read"] == remote_before
        assert h2.modmgr.dirty_chunks() == [0]

    def test_reopen_wrong_snapshot_rejected(self):
        fab, dep, hosts, rec, data = setup_cloud()
        rec2 = dep.seed_blob(Payload.from_bytes(pattern(IMG, 9)), CHUNK)

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version, path="/m")
            yield from h.close()
            vfs = MirrorVFS(hosts[0], dep.client(hosts[0]))
            with pytest.raises(MirrorStateError):
                yield from vfs.open(rec2.blob_id, rec2.version, path="/m")
            return True

        assert run(fab, scenario())

    def test_commit_target_survives_reopen(self):
        fab, dep, hosts, rec, data = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version, path="/m")
            yield from h.ioctl_clone()
            yield from h.write(0, Payload.from_bytes(b"a"))
            r1 = yield from h.ioctl_commit()
            yield from h.close()
            h2 = yield from mount(hosts[0], dep, rec.blob_id, rec.version, path="/m")
            yield from h2.write(CHUNK, Payload.from_bytes(b"b"))
            r2 = yield from h2.ioctl_commit()
            return r1, r2

        r1, r2 = run(fab, scenario())
        assert r2.blob_id == r1.blob_id
        assert r2.version == r1.version + 1


class TestHypervisorIndependence:
    def test_portability_snapshot_readable_on_fresh_node(self):
        """Suspend on one node, resume on another (paper §5.5 second setting)."""
        fab, dep, hosts, rec, data = setup_cloud()

        def scenario():
            h = yield from mount(hosts[0], dep, rec.blob_id, rec.version, path="/a")
            yield from h.write(123, Payload.from_bytes(b"state-before-suspend"))
            yield from h.ioctl_clone()
            snap = yield from h.ioctl_commit()
            yield from h.close()
            # resume on a different node, no local content available
            h2 = yield from mount(hosts[3], dep, snap.blob_id, snap.version, path="/b")
            p = yield from h2.read(123, 20)
            return p

        assert run(fab, scenario()).to_bytes() == b"state-before-suspend"
