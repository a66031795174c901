"""Tests for the local mirror file and its persistence registry."""

import pytest

from repro.calibration import FuseModel
from repro.common.errors import MirrorStateError
from repro.common.payload import Payload
from repro.core.localmirror import LocalMirrorFile, hypervisor_policy, mmap_policy
from repro.simkit.host import Fabric


def make(path="/m", size=4096):
    fab = Fabric(seed=1)
    host = fab.add_host("h")
    mirror = LocalMirrorFile(host, path, size, FuseModel())
    return fab, host, mirror


def run(fab, gen):
    return fab.run(fab.env.process(gen))


class TestBasicIo:
    def test_write_read_roundtrip(self):
        fab, host, m = make()

        def scenario():
            yield from m.pwrite(10, Payload.from_bytes(b"abc"))
            p = yield from m.pread(9, 14)  # half-open [9, 14)
            return p

        assert run(fab, scenario()).to_bytes() == b"\x00abc\x00"

    def test_fresh_mirror_reads_zero(self):
        fab, host, m = make()

        def scenario():
            p = yield from m.pread(0, 8)  # [0, 8)
            return p

        assert run(fab, scenario()).to_bytes() == b"\x00" * 8

    def test_apply_remote_same_as_write(self):
        fab, host, m = make()

        def scenario():
            yield from m.apply_remote(0, Payload.from_bytes(b"remote"), [(0, 6)])
            p = yield from m.pread(0, 6)
            return p

        assert run(fab, scenario()).to_bytes() == b"remote"

    def test_write_landing_while_remote_bytes_are_applied_stays_on_top(self):
        """The caller picked the range as unmirrored when the apply *started*."""
        fab, host, m = make()
        done = {}

        def guest():
            yield from m.pwrite(100, Payload.from_bytes(b"W"))
            done["write"] = fab.env.now

        def scenario():
            writer = fab.env.process(guest())
            yield from m.apply_remote(0, Payload.from_bytes(b"r" * 4096), [(0, 4096)])
            done["apply"] = fab.env.now
            yield writer
            p = yield from m.pread(99, 102)
            return p

        assert run(fab, scenario()).to_bytes() == b"rWr"
        assert done["write"] < done["apply"]  # the small write really finished first

    def test_apply_remote_stores_only_the_missing_ranges_at_full_cost(self):
        def apply(missing):
            fab, host, m = make()

            def scenario():
                yield from m.apply_remote(0, Payload.from_bytes(b"abcdefgh"), missing)
                took = fab.env.now
                p = yield from m.pread(0, 8)
                return took, p.to_bytes()

            return run(fab, scenario())

        whole, _ = apply([(0, 8)])
        partial, stored = apply([(0, 2), (6, 8)])
        assert stored == b"ab\x00\x00\x00\x00gh"
        assert partial == whole  # every fetched byte crossed the mmap window

class TestPersistence:
    def test_state_roundtrip(self):
        fab, host, m = make()

        def scenario():
            yield from m.pwrite(0, Payload.from_bytes(b"x"))
            yield from m.persist_state({"hello": 1})

        run(fab, scenario())
        m2 = LocalMirrorFile(host, "/m", 4096, FuseModel())
        assert m2.load_state() == {"hello": 1}
        # content survived too

        def reread():
            p = yield from m2.pread(0, 1)
            return p

        assert run(fab, reread()).to_bytes() == b"x"

    def test_io_after_close_rejected(self):
        fab, host, m = make()

        def scenario():
            yield from m.persist_state({})
            with pytest.raises(MirrorStateError):
                yield from m.pread(0, 1)
            return True

        assert run(fab, scenario())

    def test_reopen_size_mismatch_rejected(self):
        fab, host, m = make()
        with pytest.raises(MirrorStateError):
            LocalMirrorFile(host, "/m", 8192, FuseModel())

    def test_unlink_discards_everything(self):
        fab, host, m = make()

        def scenario():
            yield from m.persist_state({"x": 1})

        run(fab, scenario())
        m2 = LocalMirrorFile(host, "/m", 4096, FuseModel())
        m2.unlink()
        assert not host.exists("/m")
        m3 = LocalMirrorFile(host, "/m", 4096, FuseModel())
        assert m3.load_state() is None

    def test_states_are_per_path(self):
        fab, host, _ = make()
        a = LocalMirrorFile(host, "/a", 1024, FuseModel())
        b = LocalMirrorFile(host, "/b", 1024, FuseModel())

        def scenario():
            yield from a.persist_state({"who": "a"})
            yield from b.persist_state({"who": "b"})

        run(fab, scenario())
        assert LocalMirrorFile(host, "/a", 1024, FuseModel()).load_state() == {"who": "a"}
        assert LocalMirrorFile(host, "/b", 1024, FuseModel()).load_state() == {"who": "b"}


class TestPolicies:
    def test_mmap_policy_faster_writes_than_hypervisor(self):
        fuse = FuseModel()
        mm = mmap_policy(fuse)
        hv = hypervisor_policy(fuse)
        assert mm.write_absorb_bandwidth > hv.write_absorb_bandwidth
        assert mm.per_op_overhead > hv.per_op_overhead  # FUSE costs more per op
        assert mm.cached_read_bandwidth == hv.cached_read_bandwidth
        assert mm.data_op_overhead < mm.per_op_overhead  # readahead amortizes
