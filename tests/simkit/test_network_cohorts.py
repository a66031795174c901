"""The cohort engine is bit-identical to an eager per-flow equal-share engine.

The cohort engine replaces eager per-flow rate updates with lazy per-link
rate epochs; its correctness claim is *exact* float equality with the eager
design, which is kept as a test-only reference
(``tests/reference_network.py``). Every comparison below is ``==``, not
approx: same completion and failure times, same final clock, same event
count, same traffic counters (per tier too) — on flat fabrics and on 1-, 2-
and 4-rack topologies, under hot-spot fan-in across a trunk, mid-flow NIC
and trunk capacity changes and ``fail_nic`` on trunk-crossing flows. After
every workload step the cohort run also checks the engine's own invariants.

Also covered: capacity validation (``add_nic``, ``set_nic_capacity``), the
unified traffic-accounting API, stale completion-heap entries after
``fail_nic``, the removed engine options, and the max-min yardstick
(``MaxMinNetwork``): its timeline and stale-entry invalidation inside its
progressive filling.
"""

import hashlib
import json
import random

import pytest
from reference_network import (
    EagerEqualShareNetwork,
    MaxMinNetwork,
    check_cohort_invariants,
    round_robin_topology,
)

from repro.cloud import build_cloud
from repro.common.errors import ProviderUnavailableError, SimulationError
from repro.common.units import MB
from repro.runner import QUICK, PointSpec, execute_point
from repro.simkit.core import Environment
from repro.simkit.host import Fabric
from repro.simkit.network import FlowNetwork
from repro.simkit.trace import Metrics

ENGINES = {
    "cohort": FlowNetwork,
    "reference": EagerEqualShareNetwork,
    "maxmin": MaxMinNetwork,
}


def make_topology(racks, n_nics):
    """Oversubscribed 1.5-NIC rack uplinks (0 racks = no topology)."""
    return round_robin_topology(
        [f"n{i}" for i in range(n_nics)], racks, rack_uplink=1.5e8
    )


def run_random(
    engine,
    seed,
    faults=False,
    uniform=False,
    hotspot=False,
    racks=0,
    n_nics=10,
    n_ops=250,
    after_step=None,
):
    """A seeded adversarial workload: transfers (optionally funneled into one
    hot destination — across a trunk when racked), control messages, NIC and
    trunk capacity changes, NIC failures. ``after_step(net)`` runs after every
    driver step; the cohort engine checks its invariants there by default."""
    rng = random.Random(seed)
    env = Environment()
    topo = make_topology(racks, n_nics)
    net = ENGINES[engine](env, topology=topo)
    if after_step is None and engine == "cohort":
        after_step = check_cohort_invariants

    def cap():
        return 1e8 if uniform else 1e8 * rng.uniform(0.5, 2.0)

    nics = [net.add_nic(f"n{i}", cap(), cap()) for i in range(n_nics)]
    trunks = sorted(net._trunks) if racks > 1 else []
    finished = {}
    failed = {}

    def waiter(i, ev):
        try:
            yield ev
            finished[i] = env.now
        except ProviderUnavailableError:
            failed[i] = env.now

    def driver():
        alive = set(range(n_nics))
        for op in range(n_ops):
            yield env.timeout(rng.expovariate(1 / 0.003))
            r = rng.random()
            live = sorted(alive)
            if r < 0.70 and len(live) >= 2:
                s, d = rng.sample(live, 2)
                if hotspot and 0 in alive and s != 0 and rng.random() < 0.6:
                    d = 0
                ev = net.transfer(
                    nics[s], nics[d], rng.randrange(5000, 2_000_000),
                    kind=rng.choice(["bulk", "chunk"]),
                )
                env.process(waiter(op, ev))
            elif r < 0.78 and trunks:
                # squeeze a trunk below one NIC, or relieve it past its start
                net.set_trunk_capacity(
                    rng.choice(trunks), 1e8 * rng.choice([0.3, 0.5, 1.0, 1.5, 3.0])
                )
            elif r < 0.82 and live:
                k = rng.choice(live)
                if uniform:
                    net.set_nic_capacity(
                        nics[k],
                        1e8 * rng.choice([0.25, 0.5, 1.0, 2.0]),
                        1e8 * rng.choice([0.25, 0.5, 1.0, 2.0]),
                    )
                else:
                    net.set_nic_capacity(
                        nics[k], 1e8 * rng.uniform(0.3, 2.0), 1e8 * rng.uniform(0.3, 2.0)
                    )
            elif r < 0.88 and len(live) > 3 and faults:
                k = rng.choice(live)
                alive.discard(k)
                net.fail_nic(nics[k])
            elif live:
                s, d = rng.sample(live, 2) if len(live) >= 2 else (live[0], live[0])
                net.message(nics[s], nics[d], rng.randrange(64, 4000))
            if after_step is not None:
                after_step(net)

    env.process(driver())
    env.run()
    assert not net._flows, "flows left dangling"
    return {
        "now": env.now,
        "events": env.event_count,
        "traffic": dict(net.metrics.traffic),
        "topo_traffic": dict(net.metrics.topo_traffic),
        "finished": finished,
        "failed": failed,
    }


class TestCohortMatchesReferenceExactly:
    @pytest.mark.parametrize("uniform", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_workload(self, seed, uniform):
        a = run_random("reference", seed, uniform=uniform)
        b = run_random("cohort", seed, uniform=uniform)
        assert a == b  # exact: clock, event count, traffic, completion times

    @pytest.mark.parametrize("seed", range(4))
    def test_hotspot_fan_in(self, seed):
        """The paper's regime: many flows funneled into one downlink."""
        a = run_random("reference", seed, hotspot=True)
        b = run_random("cohort", seed, hotspot=True)
        assert a == b

    @pytest.mark.parametrize("uniform", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_with_nic_failures(self, seed, uniform):
        """Exact under fail_nic too, event count included: one abort event
        is one rebalance over every touched link in both engines."""
        a = run_random("reference", seed, faults=True, uniform=uniform)
        b = run_random("cohort", seed, faults=True, uniform=uniform)
        assert a == b

    #: SHA-256 prefix of the sorted-keys JSON of each max-min run below, as
    #: the engine that shared a class with the cohort engine produced it
    MAXMIN_DIGESTS = ("c6a016870b21ce8f", "2a8a3361bd16c176", "2ea10aa715d32669")

    @pytest.mark.parametrize("seed", range(3))
    def test_maxmin_unaffected_by_reference_subclass(self, seed):
        """The max-min yardstick rides the shared eager base unchanged: its
        fault-workload timeline, event count and traffic are the ones it had
        as a mode of the production class, to the bit."""
        run = run_random("maxmin", seed, faults=True)
        digest = hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest()
        assert digest[:16] == self.MAXMIN_DIGESTS[seed]

    def test_cohort_is_deterministic(self):
        assert run_random("cohort", 11, faults=True) == run_random(
            "cohort", 11, faults=True
        )

    def test_rebalance_option_is_gone(self):
        """One equal-share engine: there is no knob to pick another."""
        with pytest.raises(TypeError, match="rebalance"):
            FlowNetwork(Environment(), rebalance="legacy")

    def test_fairness_option_is_gone(self):
        """One sharing rule and rack trunks only: the engine switch and the
        pod / core tiers are not settable anywhere on the way down."""
        with pytest.raises(TypeError, match="fairness"):
            FlowNetwork(Environment(), fairness="maxmin")
        with pytest.raises(TypeError, match="fairness"):
            Fabric(fairness="maxmin")
        for option in ("fairness", "rack_uplink", "core_capacity"):
            with pytest.raises(TypeError, match=option):
                build_cloud(2, **{option: 1})
        spec = PointSpec(
            kind="deploy", profile=QUICK, approach="mirror", n=2, seed=1,
            params=(("fairness", "maxmin"),),
        )
        with pytest.raises(SimulationError, match="unknown params fairness"):
            execute_point(spec)


#: racks: a single-rack topology, then plain racked fabrics
FABRICS = [1, 2, 4]


class TestTrunksAreCohortsToo:
    """Trunk-crossing flows: a flow's home may be any link of its path."""

    @pytest.mark.parametrize("uniform", [False, True])
    @pytest.mark.parametrize("racks", FABRICS)
    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_workload(self, seed, racks, uniform):
        kw = dict(racks=racks, uniform=uniform, n_nics=12)
        a = run_random("reference", seed, **kw)
        b = run_random("cohort", seed, **kw)
        assert a == b
        assert b["topo_traffic"], "a topology must classify traffic by tier"
        if racks > 1:
            assert any(k.startswith("cross-") for k in b["topo_traffic"])

    @pytest.mark.parametrize("racks", FABRICS[1:])
    @pytest.mark.parametrize("seed", range(3))
    def test_hotspot_fan_in_across_a_trunk(self, seed, racks):
        """Most flows funnel into n0: its rack's down trunk (1.5 NICs for a
        fan-in from every other rack) and its downlink trade the bottleneck."""
        kw = dict(racks=racks, hotspot=True, n_nics=12)
        a = run_random("reference", seed, **kw)
        b = run_random("cohort", seed, **kw)
        assert a == b

    @pytest.mark.parametrize("uniform", [False, True])
    @pytest.mark.parametrize("racks", FABRICS[1:])
    @pytest.mark.parametrize("seed", range(3))
    def test_nic_failures_on_trunk_crossing_flows(self, seed, racks, uniform):
        kw = dict(racks=racks, faults=True, uniform=uniform, n_nics=12, n_ops=300)
        a = run_random("reference", seed, **kw)
        b = run_random("cohort", seed, **kw)
        assert a == b
        assert b["failed"], "the fault workload must abort some flows"

    @pytest.mark.parametrize("racks", FABRICS[1:])
    def test_trunks_bind(self, racks):
        """Not vacuous: some flows are homed on a rack trunk."""
        homes = set()

        def probe(net):
            homes.update(f.home.name.split(":")[0].rstrip("0123456789") for f in net._flows)

        run_random("cohort", 0, racks=racks, hotspot=True, n_nics=12, after_step=probe)
        assert "rack" in homes, "no flow was ever bottlenecked on a rack trunk"


class TestCapacityValidation:
    """Regression: only ``up_capacity > 0`` used to be validated — an
    explicit non-positive ``down_capacity`` slipped through and poisoned
    every share computed from it."""

    def setup_method(self):
        self.env = Environment()
        self.net = FlowNetwork(self.env)
        self.nic = self.net.add_nic("h0", 100 * MB)

    @pytest.mark.parametrize("bad", [0, -1, -100 * MB])
    def test_non_positive_down_capacity_rejected(self, bad):
        with pytest.raises(ValueError, match="down_capacity"):
            self.net.set_nic_capacity(self.nic, 100 * MB, bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_up_capacity_rejected(self, bad):
        with pytest.raises(ValueError, match="positive"):
            self.net.set_nic_capacity(self.nic, bad)

    def test_rejected_update_leaves_capacities_untouched(self):
        with pytest.raises(ValueError):
            self.net.set_nic_capacity(self.nic, 50 * MB, -1)
        assert self.nic.up_capacity == 100 * MB
        assert self.nic.down_capacity == 100 * MB

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_add_nic_rejects_non_positive_capacity(self, bad):
        """Used to be accepted and blow up in the first transfer
        (ZeroDivisionError / ``schedule_at(...) is in the past``)."""
        with pytest.raises(ValueError, match="positive"):
            self.net.add_nic("b", bad)
        with pytest.raises(ValueError, match="positive"):
            self.net.add_nic("b", 100 * MB, bad)
        assert "b" not in self.net._nics


class RecordingMetrics(Metrics):
    """Observes the unified accounting API; a direct ``traffic[kind] +=``
    anywhere in the network would bypass this hook and desynchronize the
    two counters."""

    def __init__(self):
        super().__init__()
        self.hooked = 0

    def add_traffic(self, nbytes, kind="bulk"):
        self.hooked += int(nbytes)
        super().add_traffic(nbytes, kind)


@pytest.mark.parametrize("engine", ["reference", "cohort"])
class TestUnifiedTrafficAccounting:
    def test_all_paths_route_through_add_traffic(self, engine):
        env = Environment()
        metrics = RecordingMetrics()
        net = ENGINES[engine](env, metrics=metrics)
        a = net.add_nic("a", 100 * MB)
        b = net.add_nic("b", 100 * MB)
        net.transfer(a, b, 10 * MB)          # bulk flow -> _complete
        net.message(a, b, 1000)              # control message
        net.transfer(a, a, 5 * MB)           # loopback (zero wire bytes)
        victim = net.transfer(b, a, 10 * MB, kind="doomed")
        victim.callbacks.append(lambda ev: None)  # swallow the abort
        env.run(env.timeout(0.01))
        net.fail_nic(b)                      # partial bytes of the victim
        env.run()
        assert metrics.hooked == metrics.total_traffic()
        assert metrics.hooked > 0
        assert metrics.traffic["doomed"] > 0  # aborted bytes were charged


@pytest.mark.parametrize("engine", ["reference", "cohort"])
class TestStaleHeapEntries:
    def test_fail_nic_races_pending_sentinel(self, engine):
        """A sentinel armed for a flow that fail_nic aborts must not
        resurrect it: the stale heap entry has to die on generation (eager)
        or epoch (cohort) mismatch when the timer fires."""
        env = Environment()
        net = ENGINES[engine](env)
        a = net.add_nic("a", 100 * MB)
        b = net.add_nic("b", 100 * MB)
        c = net.add_nic("c", 100 * MB)
        doomed = net.transfer(a, b, 10 * MB)       # ETA 0.1s, sentinel armed
        doomed.callbacks.append(lambda ev: None)
        survivor = net.transfer(c, b, 30 * MB)
        env.run(env.timeout(0.05))
        net.fail_nic(a)                            # aborts `doomed` pre-ETA
        env.run()
        assert isinstance(doomed._value, ProviderUnavailableError)
        assert survivor.triggered and survivor.ok
        assert not net._flows
        # the armed-but-stale timer fired as a no-op; the survivor's bytes
        # and the victim's partial bytes are both accounted exactly once
        assert net.metrics.traffic["bulk"] < 40 * MB

    def test_completion_after_failure_uses_fresh_entries(self, engine):
        """After fail_nic the survivors' re-pushed ETAs must drive
        completions (the dead flow's earlier ETA is skipped)."""
        env = Environment()
        net = ENGINES[engine](env, latency=0.0)
        a = net.add_nic("a", 100 * MB)
        b = net.add_nic("b", 100 * MB)
        c = net.add_nic("c", 100 * MB)
        fast = net.transfer(a, c, 5 * MB)          # would finish first
        fast.callbacks.append(lambda ev: None)
        slow = net.transfer(b, c, 20 * MB)
        env.run(env.timeout(0.01))
        net.fail_nic(a)
        env.run(slow)
        # survivor: 0.01s shared at 50 MB/s (0.5 MB done), rest at full rate
        assert env.now == pytest.approx(0.01 + 19.5 / 100, rel=1e-6)


class TestProgressiveFillingStaleEntries:
    def test_saturated_link_invalidates_pending_shares(self):
        """Classic water-filling: fixing the tight downlink re-pushes the
        shared uplink at a new level; its original heap entry is stale and
        must be skipped, not double-fix its flows at the old share."""
        env = Environment()
        net = MaxMinNetwork(env)
        a = net.add_nic("a", 100 * MB)
        b = net.add_nic("b", 30 * MB)
        c = net.add_nic("c", 100 * MB)
        f1 = net.transfer(a, b, 50 * MB)
        f2 = net.transfer(a, b, 50 * MB)
        f3 = net.transfer(a, c, 50 * MB)
        rates = {flow: rate for flow, rate in net._progressive_filling()}
        by_dst = sorted(rates.items(), key=lambda kv: kv[0].dst.name)
        levels = [rate for _, rate in by_dst]
        # b's downlink saturates first at 15 each; the uplink's leftover
        # (100 - 30) all goes to the c-bound flow
        assert levels == [15 * MB, 15 * MB, 70 * MB]
        assert len(rates) == 3
        for ev in (f1, f2, f3):
            ev.callbacks.append(lambda _ev: None)

    def test_filling_conserves_link_capacity(self):
        """No link ends up oversubscribed even with many stale entries."""
        env = Environment()
        net = MaxMinNetwork(env)
        rng = random.Random(3)
        nics = [net.add_nic(f"h{i}", 1e8 * rng.uniform(0.3, 1.5)) for i in range(8)]
        events = []
        for _ in range(40):
            s, d = rng.sample(range(8), 2)
            events.append(net.transfer(nics[s], nics[d], 10 * MB))
        rates = net._progressive_filling()
        up = {n: 0.0 for n in nics}
        down = {n: 0.0 for n in nics}
        for flow, rate in rates:
            up[flow.src] += rate
            down[flow.dst] += rate
        for n in nics:
            assert up[n] <= n.up_capacity * (1 + 1e-9)
            assert down[n] <= n.down_capacity * (1 + 1e-9)
        for ev in events:
            ev.callbacks.append(lambda _ev: None)
