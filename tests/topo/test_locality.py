"""Locality consumers: peer ranking and replica placement.

The topology's ``rack()`` map feeds two independent policies — the p2p
directories (rack-ranked candidate order) and the BlobSeer provider manager
(rack-diverse replica sets, same-rack replica reads). Each is tested in
isolation on its pure state machine, plus one end-to-end check that
rack-aware replica reads keep the no-failure deploy path entirely off the
uplink.
"""

import pytest

from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud, deploy
from repro.common.errors import StorageError
from repro.common.units import KiB, MB, MiB
from repro.blobseer.pmanager import PlacementPolicy
from repro.p2p.directory import rack_ranked
from repro.topo import Topology
from repro.vmsim import make_image


def two_rack_topo(hosts):
    topo = Topology(n_racks=2, rack_uplink=100 * MB)
    topo.place_blocked(list(hosts))
    return topo


class TestRackRanked:
    NAMES = ("n0", "n1", "n2", "n3")

    def test_partition_is_stable(self):
        topo = two_rack_topo(self.NAMES)
        # n3 sits in rack 1 with n2; same-rack candidates come first, and
        # relative order inside each partition is preserved
        assert rack_ranked(topo, "n3", ("n0", "n2", "n1")) == ("n2", "n0", "n1")

    def test_no_topology_is_identity(self):
        assert rack_ranked(None, "n0", self.NAMES) == self.NAMES

    def test_all_same_rack_is_identity(self):
        topo = Topology(n_racks=2, rack_uplink=100 * MB)
        for n in self.NAMES:
            topo.place(n, 0)
        assert rack_ranked(topo, "n0", self.NAMES) == self.NAMES

    def test_no_same_rack_candidate_is_identity(self):
        topo = two_rack_topo(self.NAMES)
        assert rack_ranked(topo, "n0", ("n2", "n3")) == ("n2", "n3")


class TestRackDiversePlacement:
    PROVIDERS = ["n0", "n1", "n2", "n3"]
    RACK_OF = {"n0": 0, "n1": 0, "n2": 1, "n3": 1}

    def policy(self, **kw):
        return PlacementPolicy(
            self.PROVIDERS, strategy="rack-diverse",
            replication_factor=2, rack_of=self.RACK_OF, **kw
        )

    def test_requires_rack_map(self):
        with pytest.raises(StorageError):
            PlacementPolicy(self.PROVIDERS, strategy="rack-diverse")

    def test_replicas_span_racks(self):
        policy = self.policy()
        for picks in policy.allocate(8, chunk_size=1):
            racks = {self.RACK_OF[p] for p in picks}
            assert racks == {0, 1}, picks

    def test_start_rack_rotates(self):
        policy = self.policy()
        first = [picks[0] for picks in policy.allocate(4, chunk_size=1)]
        # replica-0 alternates racks chunk to chunk
        assert [self.RACK_OF[p] for p in first] == [0, 1, 0, 1]

    def test_within_rack_cursor_spreads_load(self):
        policy = self.policy()
        policy.allocate(4, chunk_size=1)
        counts = policy.load_bytes
        assert set(counts.values()) == {2}, counts

    def test_replication_beyond_racks_falls_back(self):
        policy = PlacementPolicy(
            self.PROVIDERS, strategy="rack-diverse",
            replication_factor=3, rack_of=self.RACK_OF,
        )
        (picks,) = policy.allocate(1, chunk_size=1)
        assert len(picks) == len(set(picks)) == 3

    def test_exclude_avoids_dead_providers(self):
        policy = self.policy()
        for picks in policy.allocate(4, chunk_size=1, exclude=("n2",)):
            assert "n2" not in picks
            assert len(set(picks)) == 2


class TestRackAwareReadsEndToEnd:
    CALIB = Calibration(
        image=ImageSpec(
            size=32 * MiB, chunk_size=256 * KiB, boot_touched_bytes=4 * MiB
        )
    )

    def _deploy(self, topo_aware):
        cloud = build_cloud(
            8,
            seed=3,
            calib=self.CALIB,
            racks=2,
            replication_factor=2,
            placement="rack-diverse",
            topo_aware=topo_aware,
        )
        image = make_image(
            self.CALIB.image.size,
            self.CALIB.image.boot_touched_bytes,
            n_regions=16,
        )
        deploy(cloud, image, 8, "mirror")
        m = cloud.metrics
        return (
            m.topo_kind_bytes("intra-rack", "payload"),
            m.topo_kind_bytes("cross-rack", "payload"),
        )

    def test_rack_aware_reads_stay_intra_rack(self):
        intra, cross = self._deploy(topo_aware=True)
        assert cross == 0
        assert intra > 0

    def test_blind_reads_cross_the_uplink(self):
        _intra, cross = self._deploy(topo_aware=False)
        assert cross > 0
