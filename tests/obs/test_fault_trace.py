"""Trace-context propagation through retry/failover: the causal story of a
failed-then-failed-over chunk fetch must be one client span with per-attempt
children carrying the replica rank each attempt tried and why it failed."""

from repro import obs
from repro.blobseer import BlobSeerDeployment
from repro.common.payload import Payload
from repro.common.units import KiB
from repro.faults import RetryPolicy
from repro.simkit.host import Fabric

CHUNK = 4 * KiB

POLICY = RetryPolicy(attempts=3, base_delay=0.01, rpc_timeout=1.0)


def pattern(n, seed=1):
    return bytes((i * 131 + seed * 17) % 256 for i in range(n))


def make(replication=2, retry=POLICY, n_data=4, n_meta=2):
    fab = Fabric(seed=37)
    data = [fab.add_host(f"node{i}") for i in range(n_data)]
    meta = [fab.add_host(f"meta{i}") for i in range(n_meta)]
    manager = fab.add_host("manager")
    client_host = fab.add_host("client")
    dep = BlobSeerDeployment(
        fab, data_hosts=data, meta_hosts=meta, vmanager_host=manager,
        replication_factor=replication, retry=retry,
    )
    return fab, dep, data, meta, client_host


def run(fab, gen):
    return fab.run(fab.env.process(gen))


def failover_read(traced):
    """Seed a replicated blob, kill the rank-0 provider, read it back."""
    fab, dep, data, meta, ch = make(replication=2)
    payload = Payload.from_bytes(pattern(16 * CHUNK))
    rec = dep.seed_blob(payload, CHUNK)
    tracer = obs.install_tracer(fab) if traced else None
    data[0].down = True
    client = dep.client(ch)

    def scenario():
        got = yield from client.read(rec.blob_id, rec.version, 0, 16 * CHUNK)
        return got

    got = run(fab, scenario())
    assert got.to_bytes() == payload.to_bytes()
    assert fab.metrics.counters["fetch-retry"] > 0
    return fab, tracer


class TestFailoverTrace:
    def test_attempts_nest_under_one_client_fetch_span(self):
        _, tracer = failover_read(traced=True)
        fetches = [s for s in tracer.spans if s.name == "chunk-fetch"]
        assert len(fetches) == 1, "one client read -> one chunk-fetch span"
        fetch = fetches[0]
        assert fetch.category == "chunk"
        assert fetch.attrs["nchunks"] == 16

        attempts = [
            s for s in tracer.spans if s.name.startswith("fetch-attempt:")
        ]
        assert attempts, "per-attempt spans must exist"
        # every attempt — including those run in spawned scatter processes —
        # is causally linked to the one client fetch span
        for a in attempts:
            assert a.parent_id == fetch.span_id, a.name
            assert a.category == "chunk"

    def test_failed_attempt_records_replica_rank_and_error(self):
        _, tracer = failover_read(traced=True)
        attempts = [
            s for s in tracer.spans if s.name.startswith("fetch-attempt:")
        ]
        failed = [a for a in attempts if a.error is not None]
        assert failed, "the dead provider's attempt must be marked failed"
        for a in failed:
            assert a.attrs["attempt"] == 0
            assert a.attrs["replica"] == 0
            assert a.attrs["provider"] == "node0"
            assert "ProviderUnavailableError" in a.error

        recovered = [a for a in attempts if a.attrs["attempt"] == 1]
        assert recovered, "failover must produce a second attempt"
        for a in recovered:
            assert a.error is None
            assert a.attrs["replica"] == 1
            assert a.attrs["provider"] != "node0"

    def test_meta_walk_is_traced_too(self):
        _, tracer = failover_read(traced=True)
        walks = [s for s in tracer.spans if s.name == "meta-walk"]
        assert walks and all(w.category == "meta" for w in walks)

    def test_tracing_does_not_change_failover_timeline(self):
        fab_plain, _ = failover_read(traced=False)
        fab_traced, _ = failover_read(traced=True)
        assert fab_traced.env.now == fab_plain.env.now
        assert fab_traced.env.event_count == fab_plain.env.event_count
        assert dict(fab_traced.metrics.counters) == dict(fab_plain.metrics.counters)
