"""Event fusion at the layers that do it: rpc timed reads, the page cache.

Three kinds of test: what a fused chain costs in events; exact equality of
its timeline with the step-by-step reference (``tests/reference_unfused.py``)
under contention, stalls and both sides of the message threshold; and what
a tracer sees of a chain that fires no event at its interior instants.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_network import round_robin_topology
from reference_unfused import unfused

from repro import obs
from repro.blobseer.provider import NODE_WIRE_BYTES, MetadataProviderService
from repro.calibration import ServiceModel
from repro.common.errors import ChunkNotFoundError, SimulationError
from repro.common.units import MB, MiB
from repro.simkit import rpc
from repro.simkit.core import Environment
from repro.simkit.disk import FLUSH_QUANTUM, Disk, FileDevice, WritePolicy
from repro.simkit.host import Fabric
from repro.simkit.trace import Metrics

MODEL = ServiceModel()
#: biggest node batch whose reply is still a message (4096 // 72)
MESSAGE_NODES = 56


# ---------------------------------------------------------------------- #
# metadata shards without the rest of BlobSeer
# ---------------------------------------------------------------------- #
def shard_fabric(k, colocated=False, setup=0.0, racks=0, n_nodes=80):
    """``k`` metadata shards holding nodes ``0..n_nodes-1`` each, one caller."""
    names = [f"meta{i}" for i in range(k)] + ["client"]
    fab = Fabric(seed=0, topology=round_robin_topology(names, racks, 200 * MB))
    fab.connection_setup = setup
    shards = [fab.add_host(name) for name in names[:-1]]
    client = fab.add_host("client")
    for host in shards:
        service = MetadataProviderService(host, MODEL)
        service.nodes.update({nid: ("node", host.name, nid) for nid in range(n_nodes)})
        rpc.bind(host, "blob-meta", service)
    return fab, shards, shards[0] if colocated else client


def get_nodes_calls(shards, counts):
    return [
        (shard, "blob-meta", "get_nodes", list(range(n)))
        for shard, n in zip(shards, counts)
    ]


def run(fab, gen):
    return fab.run(fab.env.process(gen))


class TestWhatAFusedChainCosts:
    def test_a_call_to_a_timed_read_is_one_event(self):
        fab, shards, client = shard_fabric(1, setup=0.004)

        def one_call():
            return (yield from rpc.call(client, shards[0], "blob-meta", "get_nodes", [3, 4]))

        proc = fab.env.process(one_call())
        fab.run(proc)
        assert proc.value == [3, 4]  # a shard replies with the ids it holds
        # bootstrap + the call (first contact, request, service, response)
        # + the process's own completion
        assert fab.env.event_count == 3
        assert fab.metrics.counters["rpc-connect"] == 1

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_a_gather_of_k_timed_reads_is_one_event(self, k):
        fab, shards, client = shard_fabric(k)

        def scatter():
            return (yield from rpc.gather(client, get_nodes_calls(shards, [5] * k)))

        proc = fab.env.process(scatter())
        fab.run(proc)
        assert [sorted(batch) for batch in proc.value] == [list(range(5))] * k
        assert fab.env.event_count == 3
        with unfused():
            ref, ref_shards, ref_client = shard_fabric(k)
            ref.run(ref.env.process(rpc.gather(ref_client, get_nodes_calls(ref_shards, [5] * k))))
        # 4 per leg + shared bootstrap + AllOf (a single leg runs inline)
        assert ref.env.event_count == 2 + (3 if k == 1 else 4 * k + 2)
        assert ref.env.now == fab.env.now

    def test_a_reply_too_big_for_a_message_rides_a_flow(self):
        fab, shards, client = shard_fabric(1)
        n = MESSAGE_NODES + 1
        assert NODE_WIRE_BYTES * n > fab.network.message_threshold

        call = rpc.call(client, shards[0], "blob-meta", "get_nodes", list(range(n)))
        assert len(run(fab, call)) == n
        # a flow carries no message header: exactly the reply's bytes
        assert fab.metrics.traffic["rpc-response"] == NODE_WIRE_BYTES * n
        # bootstrap, request + service, flow completion, delivery, completion
        assert fab.env.event_count == 5

    def test_an_empty_gather_returns_at_once(self):
        fab, _, client = shard_fabric(1)
        assert run(fab, rpc.gather(client, [])) == []
        assert fab.env.now == 0.0

    def test_a_timed_read_takes_a_message_sized_request(self):
        fab, shards, client = shard_fabric(1)
        with pytest.raises(SimulationError, match="message-sized request"):
            run(fab, rpc.call(client, shards[0], "blob-meta", "get_nodes", [1],
                              request_bytes=1 * MiB))

    def test_a_page_cache_write_is_one_event_plus_one_per_flushed_quantum(self):
        env, device = page_cache()

        def writer():
            yield from device.write(6 * MB)

        env.run(env.process(writer()))
        assert env.event_count == 3  # bootstrap, the write, process completion
        env.run()
        assert device.dirty == 0
        assert env.event_count == 3 + 2  # 6 MB = two flush quanta, idle disk
        assert device.disk.metrics.counters["disk-write"] == 2
        assert device.disk.metrics.counters["disk-write-bytes"] == 6 * MB


# ---------------------------------------------------------------------- #
# gather == scatter of calls, exactly
# ---------------------------------------------------------------------- #
def gather_outcome(k, counts, colocated, setup, warm, racks, background, missing):
    fab, shards, client = shard_fabric(k, colocated, setup, racks)
    for shard, is_warm in zip(shards, warm):
        if is_warm:
            fab._rpc_conn_pairs.add((client.name, shard.name))
    if missing:
        del shards[-1].services["blob-meta"].nodes[0]
    if background:
        # a bulk flow into the caller: a reply that rides a flow shares with it
        fab.network.transfer(shards[-1].nic, client.nic, 2 * MB)
    log = []

    def scenario():
        for _ in range(2):  # the second round finds every pair warm
            batches = yield from rpc.gather(client, get_nodes_calls(shards, counts))
            # a leg missing a node settles: its exception is its slot
            log.append((fab.env.now, [
                repr(b) if isinstance(b, ChunkNotFoundError) else list(b) for b in batches
            ]))

    run(fab, scenario())
    fab.run()
    m = fab.metrics
    return {
        "log": log, "now": fab.env.now, "counters": dict(m.counters),
        "traffic": dict(m.traffic), "topo_traffic": dict(m.topo_traffic),
    }


@settings(max_examples=120, deadline=None)
@given(
    k=st.integers(1, 8),
    counts=st.lists(st.integers(1, 80), min_size=8, max_size=8),
    colocated=st.booleans(),
    setup=st.sampled_from([0.0, 0.004]),
    warm=st.lists(st.booleans(), min_size=8, max_size=8),
    racks=st.sampled_from([0, 3]),
    background=st.booleans(),
    missing=st.booleans(),
)
def test_gather_equals_a_scatter_of_stepwise_calls(
    k, counts, colocated, setup, warm, racks, background, missing
):
    args = (k, counts[:k], colocated, setup, warm[:k], racks, background, missing)
    fused = gather_outcome(*args)
    with unfused():
        stepwise = gather_outcome(*args)
    assert fused == stepwise


def test_gather_property_reaches_both_sides_of_the_threshold():
    """The pinned example the property must not lose: 56 | 57 nodes, loopback."""
    args = (3, [MESSAGE_NODES, MESSAGE_NODES + 1, 80], True, 0.004,
            [False, True, False], 3, True, False)
    fused = gather_outcome(*args)
    with unfused():
        assert gather_outcome(*args) == fused
    # loopback reply: no wire bytes; 57- and 80-node replies: flows
    assert fused["traffic"]["rpc-response"] == 2 * (NODE_WIRE_BYTES * (57 + 80))


# ---------------------------------------------------------------------- #
# page cache: over-budget writers, a contended and stalling disk
# ---------------------------------------------------------------------- #
def page_cache(dirty_budget=100 * MiB, data_op_overhead=0.0002):
    env = Environment()
    disk = Disk(env, "d", write_bandwidth=55 * MB, read_bandwidth=55 * MB, metrics=Metrics())
    policy = WritePolicy(
        name="test", write_absorb_bandwidth=400 * MB, cached_read_bandwidth=500 * MB,
        per_op_overhead=0.0005, dirty_budget=dirty_budget,
        data_op_overhead=data_op_overhead,
    )
    return env, FileDevice(env, disk, policy, size=1024 * MiB)


def bonnie_style_outcome():
    """Block writes far past the dirty budget, beside a reader and a stall."""
    env, device = page_cache(dirty_budget=6 * MiB)
    disk = device.disk
    log = []

    def block_writer(name, n, nbytes, pause):
        for _ in range(n):
            yield from device.write(nbytes)
            log.append((name, env.now, device.dirty))
            if pause:
                yield env.timeout(pause)

    def reader():
        # random reads keep the disk queue busy: flusher quanta wait their turn
        for _ in range(40):
            yield from disk.read(256 * 1024, sequential=False)
            yield env.timeout(0.003)

    def staller():
        yield env.timeout(0.05)
        disk.stall(3.0)  # a quantum queued before this keeps its price
        yield env.timeout(0.2)
        disk.unstall()

    def syncer():
        yield env.timeout(0.4)
        yield from device.sync()
        log.append(("sync", env.now, device.dirty))

    env.process(block_writer("seq", 60, 512 * 1024, 0.0))
    env.process(block_writer("slow", 25, 300_000, 0.011))  # overlaps "seq" writes
    env.process(reader())
    env.process(staller())
    env.process(syncer())
    env.run()
    assert device.dirty == 0
    assert any(dirty > 6 * MiB for _, _, dirty in log), "never went over budget"
    return {"now": env.now, "log": log, "counters": dict(disk.metrics.counters)}, env.event_count


def test_over_budget_write_phase_equals_the_stepwise_reference():
    fused, fused_events = bonnie_style_outcome()
    with unfused():
        stepwise, stepwise_events = bonnie_style_outcome()
    assert fused == stepwise
    assert fused_events < stepwise_events


def late_budget_check_outcome():
    """A second write enters while the first is in flight and the budget
    still holds; by the time its per-op cost is paid, it no longer does."""
    env, device = page_cache(dirty_budget=10 * MB)
    ends = {}

    def writer(name, start, nbytes):
        yield env.timeout(start)
        yield from device.write(nbytes)
        ends[name] = env.now

    env.process(writer("first", 0.0, 6 * MB))      # lands at 0.0152
    env.process(writer("second", 0.0151, 5 * MB))  # checks at 0.0153
    env.run()
    return ends, env.now


def test_a_write_entering_beside_another_checks_its_budget_late():
    ends, now = late_budget_check_outcome()
    with unfused():
        assert late_budget_check_outcome() == (ends, now)
    # throttled to disk speed, although the budget held when it entered
    assert ends["second"] == (0.0151 + 0.0002) + 5 * MB / (55 * MB)


def test_a_queued_flush_quantum_is_priced_when_submitted():
    env, device = page_cache()
    disk = device.disk
    done = []

    def busy():
        yield from disk.read(55 * MB)  # holds the disk for 1 s

    def submit():
        yield env.timeout(0.1)
        disk.submit_write(FLUSH_QUANTUM, lambda nbytes: done.append(env.now))
        disk.stall(4.0)  # after the submit: must not reprice the queued write

    env.process(busy())
    env.process(submit())
    env.run()
    assert done == [1.0 + FLUSH_QUANTUM / (55 * MB)]
    assert disk.metrics.counters["disk-write-bytes"] == FLUSH_QUANTUM


# ---------------------------------------------------------------------- #
# tracing a chain that has no interior events
# ---------------------------------------------------------------------- #
def traced_gather(traced):
    fab, shards, client = shard_fabric(2, setup=0.004)
    tracer = obs.install_tracer(fab) if traced else None
    run(fab, rpc.gather(client, get_nodes_calls(shards, [4, 40])))
    return fab, tracer


def test_fused_legs_are_recorded_as_closed_spans_at_their_computed_instants():
    fab, tracer = traced_gather(traced=True)
    plain, _ = traced_gather(traced=False)
    assert (fab.env.now, fab.env.event_count) == (plain.env.now, plain.env.event_count)

    calls = [s for s in tracer.spans if s.category == "rpc"]
    serves = [s for s in tracer.spans if s.category == "rpc-server"]
    assert [s.name for s in calls] == ["rpc:blob-meta.get_nodes"] * 2
    assert tracer.finish_open_spans() == 0
    net = fab.network
    for call, serve, n in zip(calls, serves, (4, 40)):
        assert serve.parent_id == call.span_id
        assert call.t0 == 0.0
        # first contact + request, then the service time, then the reply
        request = net.latency + net.per_message_overhead + (
            (rpc.REQUEST_BYTES + net.message_header_bytes) / fab.nic_bandwidth
        )
        assert serve.t0 == (0.0 + 0.004) + request
        assert serve.t1 == serve.t0 + MODEL.metadata_node_overhead * n
        assert call.t1 > serve.t1
    # the gather wakes at the slower leg
    assert fab.env.now == max(call.t1 for call in calls)


def test_stepwise_spans_cover_the_same_instants():
    _, tracer = traced_gather(traced=True)
    with unfused():
        _, ref = traced_gather(traced=True)

    def intervals(t):
        return sorted(
            (s.name, s.t0, s.t1) for s in t.spans if s.category in ("rpc", "rpc-server")
        )

    assert intervals(tracer) == intervals(ref)
