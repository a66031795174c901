"""End-to-end cooperative chunk exchange over the simulated network."""

from p2p_setup import CHUNK, IMG, build, read_all, run


class TestAnnounceExchange:
    def test_second_reader_is_served_by_peers(self):
        fab, dep, hosts, rec, data, net = build()
        assert run(fab, read_all(dep, hosts[0], rec)) == data
        provider_gets = fab.metrics.counters["chunk-get"]
        assert run(fab, read_all(dep, hosts[1], rec)) == data
        assert fab.metrics.counters["p2p-chunk-hit"] > 0
        assert fab.metrics.counters["p2p-bytes-peer"] > 0
        # the second reader barely touched the providers
        assert fab.metrics.counters["chunk-get"] < provider_gets * 2

    def test_every_node_reads_identical_bytes(self):
        fab, dep, hosts, rec, data, net = build()
        for host in hosts:
            assert run(fab, read_all(dep, host, rec)) == data

    def test_first_fetch_populates_cache(self):
        fab, dep, hosts, rec, data, net = build()
        run(fab, read_all(dep, hosts[0], rec))
        assert net.caches["node0"].used_bytes == IMG

    def test_fresh_mirror_hits_own_cache_for_free(self):
        fab, dep, hosts, rec, data, net = build()
        run(fab, read_all(dep, hosts[0], rec))
        provider_gets = fab.metrics.counters["chunk-get"]
        # a brand-new mirror on the same host re-fetches through the client,
        # but everything is already in this node's own peer cache
        assert run(fab, read_all(dep, hosts[0], rec)) == data
        assert fab.metrics.counters["p2p-local-hit"] == IMG // CHUNK
        assert fab.metrics.counters["chunk-get"] == provider_gets

    def test_stats_reflect_the_exchange(self):
        fab, dep, hosts, rec, data, net = build()
        run(fab, read_all(dep, hosts[0], rec))
        run(fab, read_all(dep, hosts[1], rec))
        stats = net.stats()
        assert stats["peer_hit_ratio"] > 0.0
        assert stats["bytes_from_peers"] > 0
        assert stats["chunks_from_providers"] >= IMG // CHUNK  # the first boot
        assert stats["peer_failovers"] == 0

    def test_bounded_cache_evicts_but_stays_correct(self):
        fab, dep, hosts, rec, data, net = build(cache_bytes=4 * CHUNK)
        assert run(fab, read_all(dep, hosts[0], rec)) == data
        assert run(fab, read_all(dep, hosts[1], rec)) == data
        assert net.caches["node0"].used_bytes <= 4 * CHUNK
        assert net.stats()["cache_evictions"] > 0


class TestRendezvousExchange:
    def test_peers_serve_without_any_directory_traffic(self):
        fab, dep, hosts, rec, data, net = build(directory="rendezvous")
        assert run(fab, read_all(dep, hosts[0], rec)) == data
        assert run(fab, read_all(dep, hosts[1], rec)) == data
        assert run(fab, read_all(dep, hosts[2], rec)) == data
        assert fab.metrics.counters["p2p-chunk-hit"] > 0
        assert fab.metrics.counters["p2p-announce"] == 0
        assert fab.metrics.counters["p2p-locate"] == 0

    def test_candidates_are_computed_not_registered(self):
        fab, dep, hosts, rec, data, net = build(directory="rendezvous")
        assert net.directory_service is None
        assert net.directory.name == "rendezvous"
