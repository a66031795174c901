"""Trunks in the flow network: routing, rates, accounting, fault injection.

A multi-rack :class:`Topology` adds trunk links to the paths of cross-rack
flows, so a flow's rate is the min share over its endpoints *and* every
trunk on its rack-to-rack path. These tests pin the routing table, the
oversubscribed rates, the per-tier byte accounting (full on complete, wire
bytes for messages, partial on abort), and mid-run trunk capacity changes.
"""

import pytest

from repro.common.errors import ProviderUnavailableError
from repro.common.units import MB
from repro.simkit.core import Environment
from repro.simkit.network import FlowNetwork
from repro.topo import Topology

CAP = 100 * MB


def two_rack_net(rack_uplink=CAP, **kw):
    """2 racks x 2 hosts: h0,h1 in rack 0; h2,h3 in rack 1."""
    topo = Topology(n_racks=2, rack_uplink=rack_uplink)
    for i in range(4):
        topo.place(f"h{i}", i // 2)
    env = Environment()
    net = FlowNetwork(env, latency=0.0, topology=topo, **kw)
    nics = [net.add_nic(f"h{i}", CAP) for i in range(4)]
    return env, net, nics


def finish_times(env, net, specs):
    """Run ``(src, dst, nbytes, start_s)`` specs; return completion times."""
    nics = [net.nic(f"h{i}") for i in range(4)]
    finish = {}

    def starter(i, src, dst, nbytes, start_s):
        yield env.timeout(start_s)
        yield net.transfer(nics[src], nics[dst], nbytes)
        finish[i] = env.now

    for i, spec in enumerate(specs):
        env.process(starter(i, *spec))
    env.run()
    return finish


def trunk_path(net, src, dst):
    """Names of the trunks on a src->dst path, in order."""
    trunks, _scope = net._route(src, dst)
    return [link.name for link in trunks]


class TestRouting:
    def test_same_rack_crosses_no_trunk(self):
        _, net, nics = two_rack_net()
        assert trunk_path(net, nics[0], nics[1]) == []

    def test_cross_rack_pays_both_rack_trunks(self):
        _, net, nics = two_rack_net()
        assert trunk_path(net, nics[0], nics[2]) == ["rack0:up", "rack1:down"]

    def test_route_is_resolved_once_per_rack_pair(self):
        _, net, nics = two_rack_net()
        route = net._route(nics[0], nics[2])
        assert net._route(nics[0], nics[2]) is route
        assert net._route(nics[1], nics[3]) is route  # same racks, other hosts
        assert route[1] == "cross-rack"

    def test_flow_links_are_the_whole_path(self):
        env, net, nics = two_rack_net()
        net.transfer(nics[0], nics[2], 10 * MB)
        (flow,) = net._flows
        assert [link.name for link in flow.links] == [
            "h0:up", "h2:down", "rack0:up", "rack1:down",
        ]
        env.run()

    def test_core_inserted_when_finite(self):
        topo = Topology(n_racks=2, rack_uplink=CAP, core_capacity=CAP)
        topo.place("a", 0)
        topo.place("b", 1)
        env = Environment()
        net = FlowNetwork(env, latency=0.0, topology=topo)
        a = net.add_nic("a", CAP)
        b = net.add_nic("b", CAP)
        assert trunk_path(net, a, b) == ["rack0:up", "core", "rack1:down"]

    def test_pod_tier_routing(self):
        topo = Topology(
            n_racks=4, rack_uplink=CAP, racks_per_pod=2, pod_uplink=2 * CAP
        )
        for i in range(4):
            topo.place(f"h{i}", i)
        env = Environment()
        net = FlowNetwork(env, latency=0.0, topology=topo)
        nics = [net.add_nic(f"h{i}", CAP) for i in range(4)]
        assert trunk_path(net, nics[0], nics[1]) == ["rack0:up", "rack1:down"]
        assert trunk_path(net, nics[0], nics[3]) == [
            "rack0:up", "pod0:up", "pod1:down", "rack3:down",
        ]

    def test_maxmin_rejects_multi_rack(self):
        topo = Topology(n_racks=2, rack_uplink=CAP)
        with pytest.raises(ValueError):
            FlowNetwork(Environment(), fairness="maxmin", topology=topo)

    def test_single_rack_paths_have_no_trunks(self):
        """One rack is a flat fabric: every path is the two NIC links, and
        the timeline is the flat one whatever the (unused) uplink is."""
        specs = [(0, 1, 40 * MB, 0.0), (2, 1, 25 * MB, 0.1), (1, 3, 30 * MB, 0.2)]

        def timeline(topology):
            env = Environment()
            net = FlowNetwork(env, latency=0.0, topology=topology)
            nics = [net.add_nic(f"h{i}", CAP) for i in range(4)]
            finish = finish_times(env, net, specs)
            return net, nics, (finish, env.now, env.event_count)

        topo = Topology(n_racks=1, rack_uplink=CAP / 100)
        for i in range(4):
            topo.place(f"h{i}", 0)
        net, nics, racked = timeline(topo)
        assert trunk_path(net, nics[0], nics[1]) == []
        assert racked == timeline(None)[2]


class TestRates:
    def test_intra_rack_flow_unconstrained_by_trunk(self):
        env, net, _ = two_rack_net(rack_uplink=CAP / 4)
        finish = finish_times(env, net, [(0, 1, 100 * MB, 0.0)])
        assert finish[0] == pytest.approx(1.0)

    def test_cross_rack_flows_share_the_uplink(self):
        env, net, _ = two_rack_net()
        # Two flows out of rack 0: each NIC has a full 100 MB/s, but the
        # shared 100 MB/s rack0:up trunk halves both.
        finish = finish_times(
            env, net, [(0, 2, 100 * MB, 0.0), (1, 3, 100 * MB, 0.0)]
        )
        assert finish[0] == pytest.approx(2.0)
        assert finish[1] == pytest.approx(2.0)

    def test_oversubscribed_trunk_is_the_bottleneck(self):
        env, net, _ = two_rack_net(rack_uplink=CAP / 4)
        finish = finish_times(env, net, [(0, 2, 100 * MB, 0.0)])
        assert finish[0] == pytest.approx(4.0)

    def test_trunk_share_released_on_completion(self):
        env, net, _ = two_rack_net()
        # Flow 1 is half the size: it finishes at 1.5s (50 MB/s), then flow 0
        # gets the full trunk back for its remaining 25 MB.
        finish = finish_times(
            env, net, [(0, 2, 100 * MB, 0.0), (1, 3, 50 * MB, 0.0)]
        )
        assert finish[1] == pytest.approx(1.0)
        assert finish[0] == pytest.approx(1.5)


class TestTrunkCapacityChange:
    def test_rejects_non_positive(self):
        _, net, _ = two_rack_net()
        with pytest.raises(ValueError, match="positive"):
            net.set_trunk_capacity("rack0:up", 0)
        assert net.trunk("rack0:up").capacity == CAP

    def test_unknown_trunk_lists_the_known_names(self):
        _, net, _ = two_rack_net()
        for call in (net.trunk, lambda name: net.set_trunk_capacity(name, CAP)):
            with pytest.raises(ValueError, match="rack9:up.*rack0:up.*rack1:down"):
                call("rack9:up")

    def test_flat_network_has_no_trunks_to_name(self):
        net = FlowNetwork(Environment())
        with pytest.raises(ValueError, match="no topology"):
            net.trunk("rack0:up")

    def test_mid_flow_squeeze_rebalances(self):
        env, net, nics = two_rack_net()
        finish = {}

        def starter():
            yield net.transfer(nics[0], nics[2], 100 * MB)
            finish["t"] = env.now

        def squeeze():
            yield env.timeout(0.5)
            net.set_trunk_capacity("rack0:up", CAP / 4)

        env.process(starter())
        env.process(squeeze())
        env.run()
        # 50 MB at 100 MB/s, then the remaining 50 MB at 25 MB/s.
        assert finish["t"] == pytest.approx(0.5 + 50.0 / 25.0)

    def test_mid_flow_relief_rebalances(self):
        env, net, nics = two_rack_net(rack_uplink=CAP / 4)
        finish = {}

        def starter():
            yield net.transfer(nics[0], nics[2], 100 * MB)
            finish["t"] = env.now

        def relieve():
            yield env.timeout(2.0)
            # both trunks on the path must widen, or the other stays the
            # bottleneck
            net.set_trunk_capacity("rack0:up", CAP)
            net.set_trunk_capacity("rack1:down", CAP)

        env.process(starter())
        env.process(relieve())
        env.run()
        # 50 MB at 25 MB/s, then the NIC (100 MB/s) limits the rest.
        assert finish["t"] == pytest.approx(2.0 + 50.0 / 100.0)


class TestAccounting:
    def test_completed_flow_charged_to_its_scope(self):
        env, net, _ = two_rack_net()
        finish_times(
            env, net, [(0, 1, 30 * MB, 0.0), (0, 2, 50 * MB, 0.0)]
        )
        scopes = net.metrics.topo_scope_totals()
        assert scopes["intra-rack"] == 30 * MB
        assert scopes["cross-rack"] == 50 * MB

    def test_message_charged_wire_bytes(self):
        env, net, nics = two_rack_net()
        net.message(nics[0], nics[2], 1000)
        net.message(nics[0], nics[2], 1000)
        env.run()
        wire = 1000 + net.message_header_bytes
        assert net.metrics.topo_kind_bytes("cross-rack", "message") == 2 * wire

    def test_failed_flow_charged_partial_bytes(self):
        env, net, nics = two_rack_net()
        failures = []

        def starter():
            try:
                yield net.transfer(nics[0], nics[2], 100 * MB)
            except ProviderUnavailableError as exc:
                failures.append(exc)

        def kill():
            yield env.timeout(0.5)
            net.fail_nic(nics[2])

        env.process(starter())
        env.process(kill())
        env.run()
        assert failures, "flow should have been aborted"
        # 0.5s at 100 MB/s on the wire before the abort.
        scopes = net.metrics.topo_scope_totals()
        assert scopes["cross-rack"] == pytest.approx(50 * MB)

    def test_single_rack_topology_accounts_without_path_engine(self):
        topo = Topology(n_racks=1, rack_uplink=CAP)
        topo.place("a", 0)
        topo.place("b", 0)
        env = Environment()
        net = FlowNetwork(env, latency=0.0, topology=topo)
        a = net.add_nic("a", CAP)
        b = net.add_nic("b", CAP)
        net.transfer(a, b, 10 * MB)
        env.run()
        assert net.metrics.topo_scope_totals() == {"intra-rack": 10 * MB}

    def test_flat_network_accounts_nothing(self):
        env = Environment()
        net = FlowNetwork(env, latency=0.0)
        a = net.add_nic("a", CAP)
        b = net.add_nic("b", CAP)
        net.transfer(a, b, 10 * MB)
        env.run()
        assert net.metrics.topo_traffic == {}
