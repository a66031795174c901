"""Tests for access-profile-guided prefetching (paper §7 future work)."""

import pytest

from repro.blobseer import BlobSeerDeployment
from repro.common.errors import MirrorStateError
from repro.common.payload import Payload
from repro.common.units import KiB
from repro.core import MirrorVFS
from repro.core.prefetch import AccessProfile, Prefetcher, ProfileRecorder
from repro.simkit.host import Fabric

CHUNK = 4 * KiB
IMG = 16 * CHUNK


def pattern(n, seed=1):
    return bytes((i * 131 + seed * 17) % 256 for i in range(n))


def setup(seed=33):
    fab = Fabric(seed=seed)
    hosts = [fab.add_host(f"node{i}") for i in range(4)]
    manager = fab.add_host("manager")
    dep = BlobSeerDeployment(fab, hosts, hosts, manager)
    data = pattern(IMG)
    rec = dep.seed_blob(Payload.from_bytes(data), CHUNK)
    return fab, dep, hosts, rec, data


def run(fab, gen):
    return fab.run(fab.env.process(gen))


BOOT_READS = [(0, 100), (5 * CHUNK, 200), (2 * CHUNK + 7, 100), (9 * CHUNK, 50)]
EXPECTED_ORDER = [0, 5, 2, 9]


class TestAccessProfile:
    def test_single_recording_order(self):
        profile = AccessProfile(CHUNK)
        profile.record_run(EXPECTED_ORDER)
        assert profile.predicted_order() == EXPECTED_ORDER

    def test_merged_recordings_use_median(self):
        profile = AccessProfile(CHUNK)
        profile.record_run([0, 5, 2, 9])
        profile.record_run([0, 5, 2, 9])
        profile.record_run([5, 0, 9, 2])  # one outlier ordering
        assert profile.predicted_order() == [0, 5, 2, 9]
        assert profile.recordings == 3


class TestProfileRecorder:
    def test_records_first_access_order(self):
        fab, dep, hosts, rec, data = setup()
        vfs = MirrorVFS(hosts[0], dep.client(hosts[0]))

        def scenario():
            handle = yield from vfs.open(rec.blob_id, rec.version)
            recorder = ProfileRecorder(handle)
            for off, ln in BOOT_READS:
                p = yield from recorder.read(off, ln)
                assert p.to_bytes() == data[off : off + ln]
            # re-reads do not re-record
            yield from recorder.read(0, 10)
            return recorder

        recorder = run(fab, scenario())
        assert recorder.order == EXPECTED_ORDER

    def test_finish_into_profile(self):
        fab, dep, hosts, rec, data = setup()
        vfs = MirrorVFS(hosts[0], dep.client(hosts[0]))

        def scenario():
            handle = yield from vfs.open(rec.blob_id, rec.version)
            recorder = ProfileRecorder(handle)
            for off, ln in BOOT_READS:
                yield from recorder.read(off, ln)
            return recorder

        recorder = run(fab, scenario())
        profile = AccessProfile(CHUNK)
        recorder.finish_into(profile)
        assert profile.predicted_order() == EXPECTED_ORDER


class TestPrefetcher:
    def _profile(self):
        profile = AccessProfile(CHUNK)
        profile.record_run(EXPECTED_ORDER)
        return profile

    def test_background_prefetch_makes_reads_local(self):
        fab, dep, hosts, rec, data = setup()
        vfs = MirrorVFS(hosts[1], dep.client(hosts[1]))
        profile = self._profile()

        def scenario():
            handle = yield from vfs.open(rec.blob_id, rec.version)
            prefetcher = Prefetcher(handle, profile, window=8)
            proc = prefetcher.start()
            yield proc  # let it run to completion (no foreground competition)
            remote_before = fab.metrics.counters["mirror-remote-read"]
            for off, ln in BOOT_READS:
                p = yield from handle.read(off, ln)
                assert p.to_bytes() == data[off : off + ln]
            return remote_before

        remote_before = run(fab, scenario())
        # the boot reads were all served locally
        assert fab.metrics.counters["mirror-remote-read"] == remote_before
        assert fab.metrics.counters["prefetch-chunk"] == len(EXPECTED_ORDER)

    def test_window_bounds_lookahead(self):
        fab, dep, hosts, rec, data = setup()
        vfs = MirrorVFS(hosts[1], dep.client(hosts[1]))
        profile = AccessProfile(CHUNK)
        profile.record_run(list(range(16)))  # whole image in order

        def scenario():
            handle = yield from vfs.open(rec.blob_id, rec.version)
            prefetcher = Prefetcher(handle, profile, window=2)
            prefetcher.start()
            yield fab.env.timeout(0.5)  # plenty of time, but nothing consumed
            fetched_while_stalled = prefetcher.fetched
            prefetcher.stop()
            return fetched_while_stalled

        fetched = run(fab, scenario())
        assert fetched <= 2  # respected the look-ahead window

    def test_profile_order_is_taken_once_per_run(self, monkeypatch):
        """A look-ahead check counts the touched map; it never re-sorts the profile."""
        fab, dep, hosts, rec, data = setup()
        vfs = MirrorVFS(hosts[1], dep.client(hosts[1]))
        profile = AccessProfile(CHUNK)
        profile.record_run(list(range(16)))
        calls = []
        predicted_order = AccessProfile.predicted_order
        monkeypatch.setattr(
            AccessProfile, "predicted_order",
            lambda self: calls.append(1) or predicted_order(self),
        )

        def scenario():
            handle = yield from vfs.open(rec.blob_id, rec.version)
            prefetcher = Prefetcher(handle, profile, window=2)
            prefetcher.start()
            yield fab.env.timeout(0.5)  # stalled on the window: ~25 look-ahead checks
            prefetcher.stop()
            yield fab.env.timeout(0.1)

        run(fab, scenario())
        assert len(calls) == 1

    def test_stop_halts_prefetch(self):
        fab, dep, hosts, rec, data = setup()
        vfs = MirrorVFS(hosts[1], dep.client(hosts[1]))
        profile = self._profile()

        def scenario():
            handle = yield from vfs.open(rec.blob_id, rec.version)
            prefetcher = Prefetcher(handle, profile, window=1)
            prefetcher.stop()  # stopped before starting
            proc = prefetcher.start()
            fetched = yield proc
            return fetched

        assert run(fab, scenario()) == 0

    def test_chunk_size_mismatch_rejected(self):
        fab, dep, hosts, rec, data = setup()
        vfs = MirrorVFS(hosts[1], dep.client(hosts[1]))

        def scenario():
            handle = yield from vfs.open(rec.blob_id, rec.version)
            with pytest.raises(MirrorStateError):
                Prefetcher(handle, AccessProfile(CHUNK * 2))
            with pytest.raises(MirrorStateError):
                Prefetcher(handle, AccessProfile(CHUNK), window=0)
            return True

        assert run(fab, scenario())

    def test_prefetch_skips_already_mirrored(self):
        fab, dep, hosts, rec, data = setup()
        vfs = MirrorVFS(hosts[1], dep.client(hosts[1]))
        profile = self._profile()

        def scenario():
            handle = yield from vfs.open(rec.blob_id, rec.version)
            yield from handle.read(0, CHUNK)  # chunk 0 already local
            prefetcher = Prefetcher(handle, profile, window=8)
            fetched = yield prefetcher.start()
            return fetched

        assert run(fab, scenario()) == len(EXPECTED_ORDER) - 1
