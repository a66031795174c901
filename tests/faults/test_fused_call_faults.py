"""Fault semantics of calls priced up front (timed reads, DESIGN.md §5).

A stepwise call checks its callee when it starts and after the handler ran.
A fused call has no event at the handler's instant: it checks the callee
when it starts and when the reply lands, and a callee found down on wake
raises :class:`ProviderUnavailableError` like the mid-call check does.
"""

import pytest

from repro import obs
from repro.blobseer import BlobSeerDeployment
from repro.common.errors import ProviderUnavailableError
from repro.common.payload import Payload
from repro.common.units import KiB
from repro.faults import RetryPolicy
from repro.simkit import rpc
from repro.simkit.host import Fabric

CHUNK = 4 * KiB
POLICY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05, rpc_timeout=1.0)


def make(retry=None, meta_replication=1):
    fab = Fabric(seed=41)
    data = [fab.add_host(f"node{i}") for i in range(2)]
    meta = [fab.add_host(f"meta{i}") for i in range(2)]
    dep = BlobSeerDeployment(
        fab, data_hosts=data, meta_hosts=meta, vmanager_host=fab.add_host("manager"),
        retry=retry, meta_replication=meta_replication,
    )
    dep.seed_blob(Payload.opaque("img", 16 * CHUNK), CHUNK)
    client = dep.client(fab.add_host("client"))
    # ids 0..7 live on both shards (id-modulo placement): a 2-leg gather
    return fab, dep, meta, client, list(range(8))


def fetch(fab, client, ids, crash=None, at=0.0001, traced=False):
    """``_get_nodes(ids)`` from t=0; optionally crash a host at ``at``."""
    tracer = obs.install_tracer(fab) if traced else None
    outcome = {}

    def reader():
        try:
            yield from client._get_nodes(ids)
            outcome["ok"] = fab.env.now
        except ProviderUnavailableError as exc:
            outcome["error"] = (fab.env.now, str(exc))

    def crasher():
        yield fab.env.timeout(at)
        crash.fail()

    fab.env.process(reader())
    if crash is not None:
        fab.env.process(crasher())
    fab.run()
    return outcome, tracer


def test_the_window_of_a_fused_gather():
    """No fault: one wake; the crash instants below fall inside [0, wake)."""
    fab, _, _, client, ids = make()
    outcome, _ = fetch(fab, client, ids)
    assert 0.0001 < outcome["ok"] < 0.001
    assert set(ids) <= set(client.cached_nodes())


def test_shard_crashing_inside_a_fused_gather_fails_it_on_wake():
    fab, _, _, healthy_client, ids = make()
    wake = fetch(fab, healthy_client, ids)[0]["ok"]

    fab, _, meta, client, ids = make()
    outcome, tracer = fetch(fab, client, ids, crash=meta[1], traced=True)
    # found down when the replies land — the instant the gather wakes at
    assert outcome == {"error": (wake, "meta1 failed during call")}
    assert not client.cached_nodes(), "a failed gather caches nothing"
    calls = {s.attrs["dst"]: s for s in tracer.spans if s.category == "rpc"}
    assert calls["meta1"].error == "ProviderUnavailableError: meta1 failed during call"
    assert calls["meta0"].error is None
    walk = next(s for s in tracer.spans if s.name == "meta-walk")
    assert walk.error is not None and walk.t1 == wake


def test_shard_crashing_after_the_replies_landed_is_not_seen():
    fab, _, meta, client, ids = make()
    outcome, _ = fetch(fab, client, ids, crash=meta[1], at=0.01)
    assert "ok" in outcome


def test_shard_already_down_costs_the_gather_a_timeout():
    fab, _, meta, client, ids = make()
    meta[1].fail()
    outcome, _ = fetch(fab, client, ids)
    assert outcome == {"error": (rpc.RPC_TIMEOUT, "meta1 unreachable")}


def test_retry_policy_fails_over_a_shard_crashing_inside_a_fused_call():
    fab, _, _, healthy_client, ids = make(retry=POLICY, meta_replication=2)
    healthy = fetch(fab, healthy_client, ids)[0]["ok"]
    assert fab.metrics.counters["meta-retry"] == 0

    fab, _, meta, client, ids = make(retry=POLICY, meta_replication=2)
    outcome, _ = fetch(fab, client, ids, crash=meta[1])
    # attempt 0 loses meta1's batch on wake, backs off, asks the other home
    assert fab.metrics.counters["meta-retry"] == 1
    assert outcome["ok"] > healthy + POLICY.delay_for(0)
    assert set(ids) <= set(client.cached_nodes())


def test_without_a_replica_the_retries_are_exhausted():
    fab, _, meta, client, ids = make(retry=POLICY, meta_replication=1)
    outcome, _ = fetch(fab, client, ids, crash=meta[1])
    assert "unreachable after 3 attempts" in outcome["error"][1]
    assert fab.metrics.counters["meta-retry"] == POLICY.attempts


@pytest.mark.parametrize("retry", [None, POLICY])
def test_tracing_does_not_move_a_faulted_timeline(retry):
    runs = []
    for traced in (False, True):
        fab, _, meta, client, ids = make(retry=retry, meta_replication=2 if retry else 1)
        outcome, _ = fetch(fab, client, ids, crash=meta[1], traced=traced)
        runs.append((outcome, fab.env.now, fab.env.event_count, dict(fab.metrics.counters)))
    assert runs[0] == runs[1]
