"""Tests for the flow-level network model."""

import pytest
from reference_network import MaxMinNetwork

from repro.common.units import MB
from repro.simkit.core import Environment
from repro.simkit.network import FlowNetwork
from repro.simkit.trace import Metrics


#: the production equal-share engine and the max-min yardstick
NETWORKS = {"equal-share": FlowNetwork, "maxmin": MaxMinNetwork}


def make_net(engine="equal-share", n_hosts=4, bw=100 * MB, latency=0.0001):
    env = Environment()
    metrics = Metrics()
    net = NETWORKS[engine](env, metrics=metrics, latency=latency)
    nics = [net.add_nic(f"h{i}", bw) for i in range(n_hosts)]
    return env, net, nics, metrics


@pytest.mark.parametrize("engine", NETWORKS)
class TestBothModes:
    def test_single_flow_full_rate(self, engine):
        env, net, nics, _ = make_net(engine)
        done = net.transfer(nics[0], nics[1], 100 * MB)
        env.run(done)
        assert env.now == pytest.approx(1.0, rel=1e-3)

    def test_two_flows_share_uplink(self, engine):
        env, net, nics, _ = make_net(engine)
        d1 = net.transfer(nics[0], nics[1], 50 * MB)
        d2 = net.transfer(nics[0], nics[2], 50 * MB)
        env.run(env.all_of([d1, d2]))
        assert env.now == pytest.approx(1.0, rel=1e-3)

    def test_two_flows_share_downlink(self, engine):
        env, net, nics, _ = make_net(engine)
        d1 = net.transfer(nics[1], nics[0], 50 * MB)
        d2 = net.transfer(nics[2], nics[0], 50 * MB)
        env.run(env.all_of([d1, d2]))
        assert env.now == pytest.approx(1.0, rel=1e-3)

    def test_disjoint_flows_independent(self, engine):
        env, net, nics, _ = make_net(engine)
        d1 = net.transfer(nics[0], nics[1], 100 * MB)
        d2 = net.transfer(nics[2], nics[3], 100 * MB)
        env.run(env.all_of([d1, d2]))
        assert env.now == pytest.approx(1.0, rel=1e-3)

    def test_departure_speeds_up_survivor(self, engine):
        env, net, nics, _ = make_net(engine)
        # Flow A: 100 MB, flow B: 50 MB, same uplink. B finishes at t=1
        # (rate 50), then A runs at 100: total = 1 + 0.5 = 1.5.
        dA = net.transfer(nics[0], nics[1], 100 * MB)
        dB = net.transfer(nics[0], nics[2], 50 * MB)
        env.run(dB)
        assert env.now == pytest.approx(1.0, rel=1e-3)
        env.run(dA)
        assert env.now == pytest.approx(1.5, rel=1e-3)

    def test_arrival_slows_down_existing(self, engine):
        env, net, nics, _ = make_net(engine)
        dA = net.transfer(nics[0], nics[1], 100 * MB)

        out = {}

        def second():
            yield env.timeout(0.5)  # A has moved 50 MB alone
            dB = net.transfer(nics[0], nics[2], 25 * MB)
            yield dB
            out["B"] = env.now

        env.process(second())
        env.run(dA)
        # After t=0.5 both run at 50 MB/s: B needs 0.5s -> t=1.0;
        # A's remaining 50MB: 25MB shared (0.5s) + 25MB alone (0.25s) -> t=1.25
        assert out["B"] == pytest.approx(1.0, rel=1e-3)
        assert env.now == pytest.approx(1.25, rel=1e-3)

    def test_traffic_accounted(self, engine):
        env, net, nics, metrics = make_net(engine)
        done = net.transfer(nics[0], nics[1], 10 * MB, kind="chunk")
        env.run(done)
        assert metrics.traffic["chunk"] == 10 * MB

    def test_loopback_is_free(self, engine):
        env, net, nics, metrics = make_net(engine)
        done = net.transfer(nics[0], nics[0], 500 * MB)
        env.run(done)
        assert env.now == pytest.approx(0.0, abs=1e-9)
        assert metrics.total_traffic() == 0

    def test_small_transfer_becomes_message(self, engine):
        env, net, nics, metrics = make_net(engine)
        done = net.transfer(nics[0], nics[1], 100)  # below threshold
        env.run(done)
        assert net.active_flow_count == 0
        assert metrics.total_traffic() > 100  # includes header


class TestMaxMinSpecifics:
    def test_redistribution(self):
        """Max-min redistributes share left by a bottlenecked flow.

        h0 sends to h1 and to h2; h3 also sends to h1. Flow h0->h1 is
        limited to 50 at h1's downlink (shared with h3->h1), so h0->h2 can
        use the remaining 50 of h0's uplink... wait, both h0 flows split the
        uplink at 50 anyway. Use asymmetric capacities instead.
        """
        env = Environment()
        net = MaxMinNetwork(env, latency=0.0)
        a = net.add_nic("a", 100 * MB)
        b = net.add_nic("b", 30 * MB)
        c = net.add_nic("c", 100 * MB)
        # a->b limited to 30 by b's downlink; a->c should then get 70.
        d1 = net.transfer(a, b, 30 * MB)
        d2 = net.transfer(a, c, 70 * MB)
        env.run(env.all_of([d1, d2]))
        assert env.now == pytest.approx(1.0, rel=1e-3)

    def test_equal_share_underestimates_here(self):
        """Same topology in equal-share mode: a->c only gets 50 (no redistribution)."""
        env = Environment()
        net = FlowNetwork(env, latency=0.0)
        a = net.add_nic("a", 100 * MB)
        b = net.add_nic("b", 30 * MB)
        c = net.add_nic("c", 100 * MB)
        d2 = net.transfer(a, c, 70 * MB)
        d1 = net.transfer(a, b, 30 * MB)
        env.run(d1)
        t_b = env.now
        env.run(d2)
        assert t_b == pytest.approx(1.0, rel=1e-3)
        # a->c ran at 50 while sharing, then 100 alone: strictly later than 1.0
        assert env.now > 1.0


class TestMessages:
    def test_message_pays_latency(self):
        env, net, nics, _ = make_net(latency=0.01)
        done = net.message(nics[0], nics[1], 100)
        env.run(done)
        assert env.now >= 0.01

    def test_messages_do_not_interact(self):
        env, net, nics, _ = make_net(latency=0.01)
        d1 = net.message(nics[0], nics[1], 100)
        d2 = net.message(nics[0], nics[1], 100)
        env.run(env.all_of([d1, d2]))
        # both complete at ~latency, not serialized
        assert env.now < 0.02

    def test_duplicate_nic_rejected(self):
        env = Environment()
        net = FlowNetwork(env)
        net.add_nic("x", 1.0)
        with pytest.raises(ValueError):
            net.add_nic("x", 1.0)

    def test_unknown_fairness_rejected(self):
        """No sharing-rule switch: the option itself is refused."""
        with pytest.raises(TypeError, match="fairness"):
            FlowNetwork(Environment(), fairness="weighted")


class TestConservation:
    def test_bytes_conserved_random_workload(self):
        """Sum of transfer sizes equals the accounted bulk traffic."""
        import numpy as np

        rng = np.random.default_rng(5)
        env, net, nics, metrics = make_net(n_hosts=6)
        sizes = []

        def traffic_gen():
            for _ in range(40):
                yield env.timeout(float(rng.uniform(0, 0.2)))
                i, j = rng.choice(6, size=2, replace=False)
                size = int(rng.integers(1, 30)) * MB
                sizes.append(size)
                net.transfer(nics[i], nics[j], size)

        env.process(traffic_gen())
        env.run()
        assert metrics.traffic["bulk"] == sum(sizes)

    def test_completion_order_respects_backlog(self):
        """A later small flow on a busy link cannot finish before its share allows."""
        env, net, nics, _ = make_net()
        big = net.transfer(nics[0], nics[1], 200 * MB)
        t = {}

        def small_later():
            yield env.timeout(1.0)
            small = net.transfer(nics[0], nics[2], 50 * MB)
            yield small
            t["small"] = env.now

        env.process(small_later())
        env.run(env.all_of([big]))
        # small: starts at 1.0 with share 50 -> 1s -> finishes ~2.0
        assert t["small"] == pytest.approx(2.0, rel=1e-2)
