"""The ``deploy`` point on a rack fabric: determinism, the cross-rack cut, flat identity."""

from repro.runner import PointSpec, execute_point

N = 8  # topo-smoke: 16 nodes; 4 racks leaves every rack a few booters


def topo_spec(n=N, **params):
    """A mirror deploy with the peer exchange on (the ``topo`` CLI's default)."""
    return PointSpec(
        kind="deploy", profile="topo-smoke", approach="mirror", n=n, seed=1,
        params={"p2p": True, **params},
    )


class TestExecutor:
    def test_deterministic(self):
        a = execute_point(topo_spec(racks=4, locality=True))
        b = execute_point(topo_spec(racks=4, locality=True))
        assert a.metrics == b.metrics
        assert a.series == b.series
        assert a.event_count == b.event_count

    def test_locality_cuts_cross_rack_bytes(self):
        blind = execute_point(topo_spec(racks=4, locality=False)).metrics
        aware = execute_point(topo_spec(racks=4, locality=True)).metrics
        assert blind["cross_rack_bytes"] > 0
        assert aware["cross_rack_bytes"] <= 0.5 * blind["cross_rack_bytes"]
        # the bytes moved into the racks, they did not vanish
        assert aware["intra_rack_bytes"] > blind["intra_rack_bytes"]

    def test_rack_aware_replica_reads_stay_in_the_rack(self):
        """Replication 2 over 2 racks, one copy per rack: only the reads differ."""
        common = dict(racks=2, p2p=False, replication=2, placement="rack-diverse")
        blind = execute_point(topo_spec(locality=False, **common)).metrics
        local = execute_point(topo_spec(locality=True, **common)).metrics
        assert local["cross_rack_payload_bytes"] == 0.0
        assert local["intra_rack_payload_bytes"] > 0
        assert blind["cross_rack_payload_bytes"] > 0


class TestFlatFabric:
    def test_one_rack_equals_the_p2p_kind(self):
        """``racks=1`` is the flat fabric: the seed model, with no tiers to count."""
        flat = execute_point(topo_spec(racks=1, locality=True))
        ref = execute_point(topo_spec())
        assert flat.series["boot_times"] == ref.series["boot_times"]
        assert flat.metrics["completion_time"] == ref.metrics["completion_time"]
        assert flat.metrics["total_traffic"] == ref.metrics["total_traffic"]
        assert flat.event_count == ref.event_count
        for tier in ("intra_rack_bytes", "cross_rack_bytes",
                     "intra_rack_payload_bytes", "cross_rack_payload_bytes"):
            assert flat.metrics[tier] == 0.0
