"""The sentinel completion scheme is equivalent to per-flow timers.

The flow network wakes completing flows through a single earliest-ETA
sentinel timer over a lazily-invalidated heap, and skips re-arming flows
whose fair share did not change. This file keeps the *legacy* scheme — one
timer per flow per rate change, the O(flows) design the sentinel replaced —
alive as an in-test oracle and checks, over randomized workloads and both
fairness disciplines, that every flow completes at the same simulated time
under both schemes.

Times are compared with a tiny absolute tolerance: skipping the re-arm of an
unchanged-rate flow avoids one ``remaining -= rate * dt`` round trip, which
can move a completion by a few float ulps (never more).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from reference_network import EagerEqualShareNetwork

from repro.common.units import MB
from repro.simkit.core import Environment, Event
from repro.simkit.network import FlowNetwork

N_HOSTS = 4
CAP = 100 * MB
TOL = 1e-9  # seconds; ulp-level float drift only

flow_spec = st.tuples(
    st.integers(0, N_HOSTS - 1),  # src
    st.integers(0, N_HOSTS - 1),  # dst
    st.integers(1, 40),           # size in MB
    st.integers(0, 150),          # start time in ms
)


class LegacyTimerNetwork(EagerEqualShareNetwork):
    """Oracle: the pre-sentinel wakeup scheme.

    Every rate change arms a fresh absolute-time timer for that flow; stale
    timers are invalidated by the flow's generation counter. This is O(n)
    timer events per rebalance of n flows — the cost the sentinel removed —
    but its completion timeline is the reference the fast path must match.

    Per-flow timers hook ``_set_rate``, which only the eager engine calls
    (the cohort engine would bypass the oracle), hence the eager
    equal-share reference as the base; max-min runs eagerly either way.
    """

    def _set_rate(self, flow, new_rate, now):
        old = flow.rate
        if old > 0.0:
            rem = flow.remaining - old * (now - flow.t_last)
            flow.remaining = rem if rem > 0.0 else 0.0
        flow.t_last = now
        flow.rate = new_rate
        flow.wake_seq += 1
        if new_rate > 0.0:
            flow.ctime = now + flow.remaining / new_rate
            gen = flow.wake_seq
            ev = Event(self.env)
            ev.callbacks.append(lambda _ev, f=flow, g=gen: self._on_timer(f, g))
            self.env.schedule_at(ev, flow.ctime)

    def _arm_sentinel(self):
        pass  # no shared sentinel; each flow carries its own timers

    def _on_timer(self, flow, gen):
        if gen != flow.wake_seq or flow not in self._flows:
            return  # superseded by a later rate change (or already done)
        self._complete(flow)


def run_workload(net_cls, flows, fairness):
    env = Environment()
    net = net_cls(env, fairness=fairness, latency=0.0)
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
    assert not net._flows, "flows left dangling"
    return finish


@settings(max_examples=60, deadline=None)
@given(st.lists(flow_spec, min_size=1, max_size=12))
@pytest.mark.parametrize("fairness", ["equal-share", "maxmin"])
def test_sentinel_matches_per_flow_timers(fairness, flows):
    fast = run_workload(FlowNetwork, flows, fairness)
    legacy = run_workload(LegacyTimerNetwork, flows, fairness)
    assert fast.keys() == legacy.keys()
    for i in fast:
        assert fast[i] == pytest.approx(legacy[i], abs=TOL), (
            f"flow {i}: sentinel={fast[i]!r} legacy={legacy[i]!r}"
        )


@pytest.mark.parametrize("fairness", ["equal-share", "maxmin"])
def test_sentinel_schedules_fewer_timers(fairness):
    """The point of the scheme: a fan-in burst costs far fewer events."""
    flows = [(src, 0, 10, 0) for src in range(1, N_HOSTS)] * 4

    def events_with(net_cls):
        env = Environment()
        net = net_cls(env, fairness=fairness, latency=0.0)
        nics = [net.add_nic(f"h{i}", CAP) for i in range(N_HOSTS)]
        for src, dst, size_mb, _ in flows:
            net.transfer(nics[src], nics[dst], size_mb * MB)
        env.run()
        return env.event_count

    assert events_with(FlowNetwork) < events_with(LegacyTimerNetwork)
