"""Unit tests for the racked topology description."""

import pytest

from repro.common.units import MB
from repro.topo import Topology, build_topology
from repro.topo.fabric import CROSS_RACK, INTRA_RACK


class TestValidation:
    def test_racks_must_be_positive(self):
        with pytest.raises(ValueError):
            Topology(n_racks=0, rack_uplink=100 * MB)

    def test_uplink_must_be_positive(self):
        with pytest.raises(ValueError):
            Topology(n_racks=2, rack_uplink=0)

    @pytest.mark.parametrize("bad", [0, -1, float("nan")])
    def test_oversubscription_must_be_positive(self, bad):
        """Checked before the uplink is derived from it: 0 used to be a
        ZeroDivisionError and -1 blamed the derived ``rack_uplink``."""
        with pytest.raises(ValueError, match="oversubscription must be positive"):
            build_topology([f"n{i}" for i in range(8)], 2, 125 * MB, oversubscription=bad)
        with pytest.raises(ValueError, match="oversubscription must be positive"):
            Topology(n_racks=2, rack_uplink=100 * MB, oversubscription=bad)


class TestPlacement:
    def test_unplaced_host_defaults_to_rack_zero(self):
        topo = Topology(n_racks=2, rack_uplink=100 * MB)
        assert topo.rack("never-seen") == 0

    def test_place_blocked_splits_evenly(self):
        topo = Topology(n_racks=2, rack_uplink=100 * MB)
        topo.place_blocked([f"h{i}" for i in range(8)])
        assert [topo.rack(f"h{i}") for i in range(8)] == [0] * 4 + [1] * 4

    def test_place_blocked_remainder_goes_to_last_rack(self):
        topo = Topology(n_racks=3, rack_uplink=100 * MB)
        topo.place_blocked([f"h{i}" for i in range(7)])
        racks = [topo.rack(f"h{i}") for i in range(7)]
        assert racks == [0, 0, 0, 1, 1, 1, 2]

    def test_explicit_place_overrides(self):
        topo = Topology(n_racks=2, rack_uplink=100 * MB)
        topo.place("special", 1)
        assert topo.rack("special") == 1

    def test_place_rejects_unknown_rack(self):
        topo = Topology(n_racks=2, rack_uplink=100 * MB)
        with pytest.raises(ValueError):
            topo.place("h", 2)


class TestScope:
    def test_same_rack(self):
        topo = Topology(n_racks=2, rack_uplink=100 * MB)
        topo.place("a", 0)
        topo.place("b", 0)
        topo.place("c", 1)
        assert topo.scope("a", "b") == INTRA_RACK
        assert topo.scope("a", "c") == CROSS_RACK
        assert topo.same_rack("a", "b")
        assert not topo.same_rack("a", "c")

    def test_multi_rack_flag(self):
        assert not Topology(n_racks=1, rack_uplink=100 * MB).multi_rack
        assert Topology(n_racks=2, rack_uplink=100 * MB).multi_rack


class TestBuildTopology:
    def test_uplink_derived_from_oversubscription(self):
        nic = 125 * MB
        topo = build_topology(
            [f"n{i}" for i in range(16)], 4, nic, oversubscription=4.0
        )
        # 4 hosts/rack * 125 MB/s / 4 = one NIC's worth of uplink
        assert topo.rack_uplink == pytest.approx(4 * nic / 4.0)
        assert topo.oversubscription == 4.0

    def test_explicit_uplink_wins(self):
        topo = build_topology(
            [f"n{i}" for i in range(8)], 2, 125 * MB, rack_uplink=42 * MB
        )
        assert topo.rack_uplink == 42 * MB

    def test_infra_hosts_land_in_rack_zero(self):
        topo = build_topology(
            [f"n{i}" for i in range(8)], 2, 125 * MB,
            infra_hosts=("manager", "nfs-server"),
        )
        assert topo.rack("manager") == 0
        assert topo.rack("nfs-server") == 0
        assert topo.rack("n7") == 1
