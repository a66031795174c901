"""Mid-flow capacity changes: the cohort engine matches the per-flow reference.

``set_nic_capacity`` and ``set_trunk_capacity`` are the rebalance triggers
that arrive from *outside* the flow population (fault injection while
transfers are in flight), so they exercise the cohort engine's
reshare/settle machinery on shares that did not change through a flow
starting or completing. This property test drives randomized workloads —
on a flat fabric and on 1, 2 and 4 racks — where NIC and trunk capacity
changes and NIC failures land mid-flow, and checks every completion and failure time, the clock, the
event count and the per-tier traffic against the eager per-flow reference
(``tests/reference_network.py``), which recomputes each touched flow
independently. Comparisons are exact (``==``).

Flow sizes are de-tied (a few KB of per-flow offset): two flows with
*exactly* equal remaining bytes on one link complete at the same instant
under both engines but in engine-specific order (heap push order there,
cohort join order here), which can move later completions by an ulp. That
is a property of exact ties, not of capacity changes, and the integer
MB/ms grid drawn here would produce such ties in most examples.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest
from reference_network import (
    EagerEqualShareNetwork,
    check_cohort_invariants,
    round_robin_topology,
)

from repro.common.errors import ProviderUnavailableError
from repro.common.units import MB
from repro.simkit.core import Environment
from repro.simkit.network import FlowNetwork

N_HOSTS = 4
CAP = 100 * MB

flow_spec = st.tuples(
    st.integers(0, N_HOSTS - 1),  # src
    st.integers(0, N_HOSTS - 1),  # dst
    st.integers(1, 40),           # size in MB
    st.integers(0, 150),          # start time in ms
)

capacity_change = st.tuples(
    st.integers(0, N_HOSTS - 1),   # nic
    st.integers(10, 200),          # new capacity in MB/s
    st.integers(1, 400),           # when, in ms
)

#: racks; 0 is "no topology attached"
racks_spec = st.sampled_from([0, 1, 2, 4])

trunk_change = st.tuples(
    st.integers(0, 15),            # which trunk (modulo the fabric's count)
    st.integers(10, 300),          # new capacity in MB/s: squeeze or relief
    st.integers(1, 400),           # when, in ms
)

nic_failure = st.tuples(
    st.integers(0, N_HOSTS - 1),   # nic
    st.integers(1, 300),           # when, in ms
)


def run_workload(net_cls, flows, changes, racks=0, trunk_changes=(), failures=()):
    env = Environment()
    # at most 2 hosts per rack: a CAP uplink is 2:1 oversubscribed on 2 racks
    topo = round_robin_topology([f"h{i}" for i in range(N_HOSTS)], racks, rack_uplink=CAP)
    net = net_cls(env, latency=0.0, topology=topo)
    nics = [net.add_nic(f"h{i}", CAP) for i in range(N_HOSTS)]
    trunks = sorted(net._trunks) if racks > 1 else []
    check = net_cls is FlowNetwork
    finish, failed = {}, {}

    def starter(i, src, dst, size_mb, start_ms):
        yield env.timeout(start_ms / 1000.0)
        try:
            yield net.transfer(nics[src], nics[dst], size_mb * MB + 4099 * (i + 1))
            finish[i] = env.now
        except ProviderUnavailableError:
            failed[i] = env.now

    def at(ms, action):
        yield env.timeout(ms / 1000.0)
        action()
        if check:
            check_cohort_invariants(net)

    for i, (src, dst, size_mb, start_ms) in enumerate(flows):
        env.process(starter(i, src, dst, size_mb, start_ms))
    for nic, cap_mb, at_ms in changes:
        env.process(at(at_ms, lambda n=nic, c=cap_mb: net.set_nic_capacity(nics[n], c * MB)))
    if trunks:
        for k, cap_mb, at_ms in trunk_changes:
            name = trunks[k % len(trunks)]
            env.process(at(at_ms, lambda t=name, c=cap_mb: net.set_trunk_capacity(t, c * MB)))
    for nic, at_ms in failures:
        env.process(at(at_ms, lambda n=nic: net.fail_nic(nics[n])))
    env.run()
    assert not net._flows, "flows left dangling"
    return {
        "finish": finish,
        "failed": failed,
        "now": env.now,
        "events": env.event_count,
        "traffic": dict(net.metrics.traffic),
        "topo_traffic": dict(net.metrics.topo_traffic),
    }


@settings(max_examples=120, deadline=None)
@given(
    st.lists(flow_spec, min_size=1, max_size=10),
    st.lists(capacity_change, min_size=1, max_size=6),
    racks_spec,
    st.lists(trunk_change, max_size=4),
    st.lists(nic_failure, max_size=2),
)
def test_cohort_matches_reference_under_capacity_changes(
    flows, changes, racks, trunk_changes, failures
):
    cohort = run_workload(FlowNetwork, flows, changes, racks, trunk_changes, failures)
    reference = run_workload(
        EagerEqualShareNetwork, flows, changes, racks, trunk_changes, failures
    )
    assert cohort == reference


def test_same_instant_relief_then_squeeze_is_exact():
    """A flow's uplink is relieved and, in a *later event of the same
    instant*, its downlink drops to exactly the level the uplink just left.
    The flow's rate went up and came back, so it was materialized at that
    instant; treating the switch as value-preserving (as the cohort engine
    once did, spanning the instant with one product) drifts by an ulp in
    about one draw in ten."""

    def run(net_cls, a, b, c, t0, t1, cap):
        env = Environment()
        net = net_cls(env, latency=0.0)
        x, y, z, w = (net.add_nic(n, cap) for n in "xyzw")
        out = {}

        def first():
            yield env.timeout(t0)
            yield net.transfer(x, y, a)
            out["x->y"] = env.now

        def mate():
            yield env.timeout(t0)
            yield net.transfer(x, z, b)
            out["x->z"] = env.now

        def relief_then_squeeze():
            yield env.timeout(t0 + t1)
            net.set_nic_capacity(x, 2 * cap)  # x.up share: cap/2 -> cap
            yield net.transfer(w, y, c)       # same instant: y.down -> cap/2
            out["w->y"] = env.now

        for proc in (first, mate, relief_then_squeeze):
            env.process(proc())
        env.run()
        return out, env.event_count

    rng = random.Random(1)
    for _ in range(300):
        draw = (
            rng.randrange(20_000_000, 40_000_000),
            rng.randrange(15_000_000, 19_000_000),
            rng.randrange(5000, 20_000_000),
            rng.uniform(0.001, 0.5),
            rng.uniform(0.001, 0.05),
            117.5e6 * rng.uniform(0.5, 2),
        )
        assert run(FlowNetwork, *draw) == run(EagerEqualShareNetwork, *draw), draw


def test_capacity_drop_slows_active_flow():
    """Sanity anchor: one flow, one squeeze, exact closed-form times."""
    finish = run_workload(FlowNetwork, [(0, 1, 100, 0)], [(0, 25, 500)])["finish"]
    # 50 MB at 100 MB/s, then 50 MB (and the 4 KB de-tie offset) at 25 MB/s
    assert finish[0] == pytest.approx(0.5 + 2.0, abs=1e-3)


def test_capacity_raise_speeds_up_active_flow():
    finish = run_workload(FlowNetwork, [(0, 1, 100, 0)], [(1, 200, 500)])["finish"]
    # downlink relief alone does nothing: the 100 MB/s uplink still binds
    assert finish[0] == pytest.approx(1.0, abs=1e-3)
