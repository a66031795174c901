"""Property tests for the flow network: physical bounds hold for any workload."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_network import MaxMinNetwork

from repro.common.units import MB
from repro.simkit.core import Environment
from repro.simkit.network import FlowNetwork

N_HOSTS = 5
CAP = 100 * MB

#: the production equal-share engine and the max-min yardstick
NETWORKS = {"equal-share": FlowNetwork, "maxmin": MaxMinNetwork}

flow_spec = st.tuples(
    st.integers(0, N_HOSTS - 1),  # src
    st.integers(0, N_HOSTS - 1),  # dst
    st.integers(1, 50),           # size in MB
    st.integers(0, 200),          # start time in ms
)


def run_workload(flows, engine):
    env = Environment()
    net = NETWORKS[engine](env, latency=0.0)
    nics = [net.add_nic(f"h{i}", CAP) for i in range(N_HOSTS)]
    finish = {}

    def starter(i, src, dst, size_mb, start_ms):
        yield env.timeout(start_ms / 1000.0)
        done = net.transfer(nics[src], nics[dst], size_mb * MB)
        yield done
        finish[i] = env.now

    for i, (src, dst, size_mb, start_ms) in enumerate(flows):
        env.process(starter(i, src, dst, size_mb, start_ms))
    env.run()
    return finish


@settings(max_examples=60, deadline=None)
@given(st.lists(flow_spec, min_size=1, max_size=12))
@pytest.mark.parametrize("engine", NETWORKS)
def test_link_capacity_lower_bounds(engine, flows):
    """No schedule can beat the per-link aggregate capacity bound."""
    finish = run_workload(flows, engine)
    # every flow individually: finish >= start + size/capacity
    for i, (src, dst, size_mb, start_ms) in enumerate(flows):
        if src == dst:
            continue  # loopback is free
        lower = start_ms / 1000.0 + size_mb * MB / CAP
        assert finish[i] >= lower - 1e-6, f"flow {i} beat the line rate"
    # per uplink: total egress bytes cannot drain faster than capacity
    for host in range(N_HOSTS):
        egress = [
            (i, size_mb, start_ms)
            for i, (src, dst, size_mb, start_ms) in enumerate(flows)
            if src == host and dst != src
        ]
        if not egress:
            continue
        total = sum(size_mb for _, size_mb, _ in egress) * MB
        earliest = min(start_ms for *_, start_ms in egress) / 1000.0
        last_finish = max(finish[i] for i, _, _ in egress)
        assert last_finish >= earliest + total / CAP - 1e-6


@settings(max_examples=40, deadline=None)
@given(st.lists(flow_spec, min_size=1, max_size=10))
def test_equal_share_never_faster_than_maxmin(flows):
    """The approximation is conservative: completions can only be later."""
    eq = run_workload(flows, "equal-share")
    mm = run_workload(flows, "maxmin")
    for i in eq:
        assert eq[i] >= mm[i] - 1e-6


@settings(max_examples=40, deadline=None)
@given(st.lists(flow_spec, min_size=1, max_size=10), st.integers(0, 2**16))
def test_determinism_any_workload(flows, _salt):
    assert run_workload(flows, "equal-share") == run_workload(flows, "equal-share")


@pytest.mark.parametrize("seed", [1, 2])
def test_equal_share_conservative_at_scale(seed):
    """The PR-1 oracle at paper scale (n >= 128): the equal-share
    approximation — now served by the cohort engine — must stay conservative
    against exact max-min on a deployment-shaped fan-in workload."""
    import random

    rng = random.Random(seed)
    n_hosts = 128
    env_flows = []
    for i in range(192):
        src = rng.randrange(1, n_hosts)
        # deployment shape: most traffic funnels into a few repository nodes
        dst = rng.randrange(0, 4) if rng.random() < 0.7 else rng.randrange(n_hosts)
        if dst == src:
            dst = (src + 1) % n_hosts
        env_flows.append((src, dst, rng.randrange(1, 16), rng.randrange(0, 400)))

    def run_big(engine):
        env = Environment()
        net = NETWORKS[engine](env, latency=0.0)
        nics = [net.add_nic(f"h{i}", CAP) for i in range(n_hosts)]
        finish = {}

        def starter(i, src, dst, size_mb, start_ms):
            yield env.timeout(start_ms / 1000.0)
            yield net.transfer(nics[src], nics[dst], size_mb * MB)
            finish[i] = env.now

        for i, spec in enumerate(env_flows):
            env.process(starter(i, *spec))
        env.run()
        return finish

    eq = run_big("equal-share")
    mm = run_big("maxmin")
    assert eq.keys() == mm.keys()
    for i in eq:
        assert eq[i] >= mm[i] - 1e-6
