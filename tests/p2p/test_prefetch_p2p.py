"""Prefetcher x peer-exchange interplay (paper §7 + the p2p extension).

The access-profile prefetcher warms a node's mirror ahead of the boot reads;
with the exchange enabled those prefetched chunks also land in the node's
peer cache, so one warmed node seeds everyone else's boot.
"""

from repro.core import MirrorVFS
from repro.core.prefetch import AccessProfile, Prefetcher

from p2p_setup import CHUNK, IMG, build, read_all, run

N_CHUNKS = IMG // CHUNK


def full_profile():
    profile = AccessProfile(CHUNK)
    profile.record_run(list(range(N_CHUNKS)))
    return profile


def prefetch_everything(dep, host, rec, window=N_CHUNKS):
    fab = dep.fabric

    def scenario():
        vfs = MirrorVFS(host, dep.client(host))
        handle = yield from vfs.open(rec.blob_id, rec.version)
        prefetcher = Prefetcher(handle, full_profile(), window=window)
        fetched = yield prefetcher.start()
        yield fab.env.timeout(0.05)  # drain the async announces
        return fetched

    return scenario()


class TestPrefetchSeedsPeers:
    def test_prefetched_chunks_are_peer_servable(self):
        fab, dep, hosts, rec, data, net = build()
        fetched = run(fab, prefetch_everything(dep, hosts[0], rec))
        assert fetched == N_CHUNKS
        assert net.caches["node0"].used_bytes == IMG
        provider_gets = fab.metrics.counters["chunk-get"]
        # a cold node's boot reads are now served by the warmed peer
        assert run(fab, read_all(dep, hosts[1], rec)) == data
        assert fab.metrics.counters["p2p-chunk-hit"] > 0
        assert fab.metrics.counters["chunk-get"] < provider_gets * 2

    def test_peer_served_reads_return_identical_bytes(self):
        fab, dep, hosts, rec, data, net = build()
        run(fab, prefetch_everything(dep, hosts[0], rec))
        for host in hosts[1:]:
            assert run(fab, read_all(dep, host, rec)) == data


class TestWindowWithPeers:
    def test_lookahead_window_respected_when_peers_serve(self):
        fab, dep, hosts, rec, data, net = build()
        run(fab, read_all(dep, hosts[0], rec))  # warm a peer: fetches get fast

        def scenario():
            vfs = MirrorVFS(hosts[1], dep.client(hosts[1]))
            handle = yield from vfs.open(rec.blob_id, rec.version)
            prefetcher = Prefetcher(handle, full_profile(), window=2)
            prefetcher.start()
            yield fab.env.timeout(0.5)  # plenty of time, nothing consumed
            fetched_while_stalled = prefetcher.fetched
            prefetcher.stop()
            return fetched_while_stalled

        # fast peer serving must not let the prefetcher run ahead of the
        # consumer beyond its look-ahead budget
        assert run(fab, scenario()) <= 2


class TestPrefetchCrashFallback:
    def test_warm_peer_crash_falls_back_with_identical_bytes(self):
        fab, dep, hosts, rec, data, net = build()
        run(fab, prefetch_everything(dep, hosts[0], rec))

        def crasher():
            deadline = fab.env.now + 5.0
            while fab.metrics.counters["p2p-serve-hit"] == 0:
                if fab.env.now > deadline:  # pragma: no cover - watchdog
                    return
                yield fab.env.timeout(1e-4)
            hosts[0].fail()

        fab.env.process(crasher())
        assert run(fab, read_all(dep, hosts[1], rec)) == data
        assert net.stats()["peer_failovers"] >= 1
