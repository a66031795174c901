"""Peer failures must cost a fallback, never correctness."""

import pytest

from repro.faults import RetryPolicy
from repro.simkit import rpc

from p2p_setup import CHUNK, IMG, build, read_all, run

#: fast retries so failure exhaustion costs milliseconds of simulated time
POLICY = RetryPolicy(attempts=3, base_delay=0.01, rpc_timeout=1.0)


class TestDownPeer:
    def test_known_down_peer_skipped_without_timeout(self):
        fab, dep, hosts, rec, data, net = build()
        run(fab, read_all(dep, hosts[0], rec))
        hosts[0].down = True
        t0 = fab.env.now
        assert run(fab, read_all(dep, hosts[1], rec)) == data
        stats = net.stats()
        # the dead holder was skipped up front: no failed RPC, no timeout
        assert stats["peer_failovers"] == 0
        assert stats["chunks_from_peers"] == 0
        assert fab.env.now - t0 < rpc.RPC_TIMEOUT

    def test_down_directory_degrades_to_providers(self):
        fab, dep, hosts, rec, data, net = build()
        run(fab, read_all(dep, hosts[0], rec))
        net.directory.service_host.down = True
        assert run(fab, read_all(dep, hosts[1], rec)) == data
        assert net.stats()["chunks_from_peers"] == 0


class TestPeerCrash:
    @pytest.mark.parametrize("retry", [None, POLICY])
    def test_crash_while_serving_falls_back_to_providers(self, retry):
        fab, dep, hosts, rec, data, net = build(retry=retry)
        run(fab, read_all(dep, hosts[0], rec))

        def crasher():
            # fail the only holder the moment it starts serving node1
            deadline = fab.env.now + 5.0
            while fab.metrics.counters["p2p-serve-hit"] == 0:
                if fab.env.now > deadline:  # pragma: no cover - watchdog
                    return
                yield fab.env.timeout(1e-4)
            hosts[0].fail()

        fab.env.process(crasher())
        assert run(fab, read_all(dep, hosts[1], rec)) == data
        stats = net.stats()
        assert stats["peer_failovers"] >= 1
        assert stats["chunks_from_providers"] > IMG // CHUNK  # fallback used

    def test_crash_loses_the_cache(self):
        fab, dep, hosts, rec, data, net = build()
        run(fab, read_all(dep, hosts[0], rec))
        assert net.caches["node0"].used_bytes > 0
        hosts[0].fail()
        assert net.caches["node0"].used_bytes == 0
