"""Chunk replication + client failover: the resilient data/metadata paths."""

import pytest

from repro.blobseer import BlobSeerDeployment
from repro.common.errors import ProviderUnavailableError, StorageError
from repro.common.payload import Payload
from repro.common.units import KiB
from repro.faults import RetryPolicy
from repro.simkit.host import Fabric

CHUNK = 4 * KiB

#: fast retries so failure exhaustion costs milliseconds of simulated time
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


def stored_copies(dep):
    return sum(len(svc.store) for svc in dep.data_services.values())


class TestReplicatedWrites:
    def test_upload_fans_out_to_k_providers(self):
        fab, dep, data, meta, ch = make(replication=2)
        client = dep.client(ch)
        payload = Payload.from_bytes(pattern(8 * CHUNK))

        def scenario():
            blob = yield from client.create(8 * CHUNK, CHUNK)
            rec = yield from client.upload(blob, payload)
            got = yield from client.read(rec.blob_id, rec.version, 0, 8 * CHUNK)
            return got

        assert run(fab, scenario()).to_bytes() == payload.to_bytes()
        assert stored_copies(dep) == 2 * 8  # every chunk lives twice

    def test_write_prunes_dead_replicas(self):
        """A provider that dies mid-write drops out of the chunks' refs.

        The crash lands *after* placement (pre-crash allocations still name
        the victim) but before its puts complete, so the client must give up
        on the dead replica and commit refs that only list survivors.
        """
        fab, dep, data, meta, ch = make(replication=2)
        client = dep.client(ch)
        payload = Payload.from_bytes(pattern(8 * CHUNK))

        def crash_mid_put():
            yield fab.env.timeout(0.002)
            data[1].fail()

        def scenario():
            blob = yield from client.create(8 * CHUNK, CHUNK)
            rec = yield from client.upload(blob, payload)
            # dead provider stays down: reads must never route to it
            got = yield from client.read(rec.blob_id, rec.version, 0, 8 * CHUNK)
            return got

        fab.env.process(crash_mid_put())
        assert run(fab, scenario()).to_bytes() == payload.to_bytes()
        assert fab.metrics.counters["replica-pruned"] > 0

    def test_write_fails_when_no_replica_survives(self):
        fab, dep, data, meta, ch = make(replication=1, n_data=2)
        data[0].down = True
        data[1].down = True
        client = dep.client(ch)

        def scenario():
            blob = yield from client.create(4 * CHUNK, CHUNK)
            yield from client.upload(blob, Payload.zeros(4 * CHUNK))

        # allocation itself refuses: no live provider can hold a replica
        with pytest.raises(StorageError):
            run(fab, scenario())


class TestFailoverReads:
    def test_read_fails_over_to_surviving_replica(self):
        fab, dep, data, meta, ch = make(replication=2)
        payload = Payload.from_bytes(pattern(16 * CHUNK))
        rec = dep.seed_blob(payload, CHUNK)
        data[0].down = True
        client = dep.client(ch)

        def scenario():
            got = yield from client.read(rec.blob_id, rec.version, 0, 16 * CHUNK)
            return got

        assert run(fab, scenario()).to_bytes() == payload.to_bytes()
        assert fab.metrics.counters["fetch-retry"] > 0

    def test_unreplicated_read_exhausts_attempts(self):
        fab, dep, data, meta, ch = make(replication=1)
        rec = dep.seed_blob(Payload.from_bytes(pattern(16 * CHUNK)), CHUNK)
        data[0].down = True
        client = dep.client(ch)

        def scenario():
            yield from client.read(rec.blob_id, rec.version, 0, 16 * CHUNK)

        with pytest.raises(ProviderUnavailableError):
            run(fab, scenario())
        # one backoff per failed round, minus the final raise
        assert fab.env.now >= POLICY.delay_for(0)

    def test_metadata_survives_primary_shard_loss(self):
        """meta_replication=2: every tree node lives on two shard homes."""
        fab, dep, data, meta, ch = make(replication=2)
        assert dep.meta_replication == 2
        payload = Payload.from_bytes(pattern(16 * CHUNK))
        rec = dep.seed_blob(payload, CHUNK)
        meta[0].down = True
        client = dep.client(ch)

        def scenario():
            got = yield from client.read(rec.blob_id, rec.version, 0, 16 * CHUNK)
            return got

        assert run(fab, scenario()).to_bytes() == payload.to_bytes()
        assert fab.metrics.counters["meta-retry"] > 0

    def test_rpc_timeout_abandons_unanswered_call(self):
        """A call into a crashing host is abandoned at the policy deadline,
        not awaited forever."""
        fab, dep, data, meta, ch = make(replication=2)
        payload = Payload.from_bytes(pattern(16 * CHUNK))
        rec = dep.seed_blob(payload, CHUNK)
        client = dep.client(ch)

        def crash_later():
            yield fab.env.timeout(0.0005)
            data[0].fail()

        def scenario():
            got = yield from client.read(rec.blob_id, rec.version, 0, 16 * CHUNK)
            return got

        fab.env.process(crash_later())
        assert run(fab, scenario()).to_bytes() == payload.to_bytes()


class TestStrictlyOffPath:
    def test_defaults_disable_every_resilience_branch(self):
        fab, dep, data, meta, ch = make(replication=1, retry=None, n_meta=1)
        assert dep.retry is None
        assert dep.replication_factor == 1
        assert dep.meta_replication == 1
        rec = dep.seed_blob(Payload.from_bytes(pattern(8 * CHUNK)), CHUNK)
        assert stored_copies(dep) == 8  # exactly one copy per chunk

    def test_replication_beyond_pool_rejected(self):
        with pytest.raises(StorageError):
            make(replication=5, n_data=4)
