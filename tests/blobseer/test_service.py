"""End-to-end tests of the BlobSeer deployment on a simulated cluster."""

import pytest

from repro.common.errors import (
    ProviderUnavailableError,
    StorageError,
    UnknownBlobError,
    UnknownVersionError,
)
from repro.common.payload import Payload
from repro.common.units import KiB
from repro.simkit.host import Fabric
from repro.blobseer import BlobSeerDeployment

CHUNK = 4 * KiB


def make_deployment(n_nodes=4, seed=7, meta_on_manager=False, **kwargs):
    fab = Fabric(seed=seed)
    hosts = [fab.add_host(f"node{i}") for i in range(n_nodes)]
    manager = fab.add_host("manager")
    meta_hosts = [manager] if meta_on_manager else hosts
    dep = BlobSeerDeployment(
        fab, data_hosts=hosts, meta_hosts=meta_hosts, vmanager_host=manager, **kwargs
    )
    return fab, dep, hosts, manager


def run(fab, gen):
    return fab.run(fab.env.process(gen))


def pattern(n, seed=1):
    """Deterministic non-trivial bytes."""
    return bytes((i * 131 + seed * 17) % 256 for i in range(n))


class TestCreateUploadRead:
    def test_upload_read_roundtrip(self):
        fab, dep, hosts, _ = make_deployment()
        data = pattern(3 * CHUNK + 123)  # non-chunk-aligned size
        client = dep.client(hosts[0])

        def scenario():
            blob = yield from client.create(len(data), CHUNK)
            rec = yield from client.upload(blob, Payload.from_bytes(data))
            got = yield from client.read(blob, rec.version, 0, len(data))
            return rec, got

        rec, got = run(fab, scenario())
        assert rec.version == 1
        assert got.to_bytes() == data

    def test_partial_unaligned_reads(self):
        fab, dep, hosts, _ = make_deployment()
        data = pattern(4 * CHUNK)
        client = dep.client(hosts[1])

        def scenario():
            blob = yield from client.create(len(data), CHUNK)
            yield from client.upload(blob, Payload.from_bytes(data))
            out = []
            for off, ln in [(0, 1), (CHUNK - 1, 2), (CHUNK + 7, 3 * CHUNK - 100), (len(data) - 1, 1)]:
                p = yield from client.read(blob, 1, off, ln)
                out.append((off, ln, p.to_bytes()))
            return out

        for off, ln, got in run(fab, scenario()):
            assert got == pattern(4 * CHUNK)[off : off + ln]

    def test_read_empty_version_zero_is_zeros(self):
        fab, dep, hosts, _ = make_deployment()
        client = dep.client(hosts[0])

        def scenario():
            blob = yield from client.create(2 * CHUNK, CHUNK)
            p = yield from client.read(blob, 0, 10, 100)
            return p

        assert run(fab, scenario()).to_bytes() == b"\x00" * 100

    def test_read_beyond_size_rejected(self):
        fab, dep, hosts, _ = make_deployment()
        client = dep.client(hosts[0])

        def scenario():
            blob = yield from client.create(CHUNK, CHUNK)
            yield from client.read(blob, 0, 0, CHUNK + 1)

        with pytest.raises(StorageError):
            run(fab, scenario())

    def test_unknown_blob_and_version(self):
        fab, dep, hosts, _ = make_deployment()
        client = dep.client(hosts[0])

        def bad_blob():
            yield from client.read(999, 0, 0, 1)

        with pytest.raises(UnknownBlobError):
            run(fab, bad_blob())

        def bad_version():
            blob = yield from client.create(CHUNK, CHUNK)
            yield from client.read(blob, 5, 0, 1)

        with pytest.raises(UnknownVersionError):
            run(fab, bad_version())

    def test_chunks_striped_across_providers(self):
        fab, dep, hosts, _ = make_deployment(n_nodes=4)
        data = pattern(8 * CHUNK)
        client = dep.client(hosts[0])

        def scenario():
            blob = yield from client.create(len(data), CHUNK)
            yield from client.upload(blob, Payload.from_bytes(data))

        run(fab, scenario())
        counts = [len(dep.data_services[h.name].store) for h in hosts]
        assert counts == [2, 2, 2, 2]  # round-robin over 4 providers


class TestVersioning:
    def test_commit_chain_old_versions_stable(self):
        fab, dep, hosts, _ = make_deployment()
        data = pattern(4 * CHUNK)
        client = dep.client(hosts[0])

        def scenario():
            blob = yield from client.create(len(data), CHUNK)
            yield from client.upload(blob, Payload.from_bytes(data))
            mod1 = Payload.from_bytes(pattern(CHUNK, seed=9))
            rec2 = yield from client.write_chunks(blob, {1: mod1})
            mod2 = Payload.from_bytes(pattern(CHUNK, seed=13))
            rec3 = yield from client.write_chunks(blob, {1: mod2, 3: mod1})
            v1 = yield from client.read(blob, 1, 0, len(data))
            v2 = yield from client.read(blob, 2, 0, len(data))
            v3 = yield from client.read(blob, 3, 0, len(data))
            return rec2, rec3, v1, v2, v3

        rec2, rec3, v1, v2, v3 = run(fab, scenario())
        assert (rec2.version, rec3.version) == (2, 3)
        ref = bytearray(pattern(4 * CHUNK))
        assert v1.to_bytes() == bytes(ref)
        ref2 = bytearray(ref)
        ref2[CHUNK : 2 * CHUNK] = pattern(CHUNK, seed=9)
        assert v2.to_bytes() == bytes(ref2)
        ref3 = bytearray(ref2)
        ref3[CHUNK : 2 * CHUNK] = pattern(CHUNK, seed=13)
        ref3[3 * CHUNK : 4 * CHUNK] = pattern(CHUNK, seed=9)
        assert v3.to_bytes() == bytes(ref3)

    def test_storage_grows_by_diff_only(self):
        fab, dep, hosts, _ = make_deployment()
        data = pattern(8 * CHUNK)
        client = dep.client(hosts[0])

        def scenario():
            blob = yield from client.create(len(data), CHUNK)
            yield from client.upload(blob, Payload.from_bytes(data))
            base = dep.stored_bytes()
            yield from client.write_chunks(blob, {2: Payload.from_bytes(pattern(CHUNK, 5))})
            return base

        base = run(fab, scenario())
        assert base == 8 * CHUNK
        assert dep.stored_bytes() == 9 * CHUNK  # one new chunk, not a new image

    def test_wrong_chunk_size_rejected(self):
        fab, dep, hosts, _ = make_deployment()
        client = dep.client(hosts[0])

        def scenario():
            blob = yield from client.create(4 * CHUNK, CHUNK)
            yield from client.write_chunks(blob, {0: Payload.from_bytes(b"short")})

        with pytest.raises(StorageError):
            run(fab, scenario())

    def test_clone_and_commit_independent_lineages(self):
        fab, dep, hosts, _ = make_deployment()
        data = pattern(4 * CHUNK)
        client = dep.client(hosts[0])

        def scenario():
            blob_a = yield from client.create(len(data), CHUNK)
            yield from client.upload(blob_a, Payload.from_bytes(data))
            clone_rec = yield from client.clone(blob_a, 1)
            blob_b = clone_rec.blob_id
            # modify the clone twice (Fig. 3(c))
            yield from client.write_chunks(blob_b, {1: Payload.from_bytes(pattern(CHUNK, 2))})
            yield from client.write_chunks(blob_b, {3: Payload.from_bytes(pattern(CHUNK, 3))})
            a_latest = yield from client.read(blob_a, None, 0, len(data))
            b_v1 = yield from client.read(blob_b, 1, 0, len(data))
            b_latest = yield from client.read(blob_b, None, 0, len(data))
            return blob_a, blob_b, a_latest, b_v1, b_latest

        blob_a, blob_b, a_latest, b_v1, b_latest = run(fab, scenario())
        assert blob_b != blob_a
        assert a_latest.to_bytes() == data  # original untouched
        assert b_v1.to_bytes() == data  # clone's snapshot 1 = source content
        expected = bytearray(data)
        expected[CHUNK : 2 * CHUNK] = pattern(CHUNK, 2)
        expected[3 * CHUNK : 4 * CHUNK] = pattern(CHUNK, 3)
        assert b_latest.to_bytes() == bytes(expected)

    def test_clone_costs_no_chunk_storage(self):
        fab, dep, hosts, _ = make_deployment()
        data = pattern(8 * CHUNK)
        client = dep.client(hosts[0])

        def scenario():
            blob = yield from client.create(len(data), CHUNK)
            yield from client.upload(blob, Payload.from_bytes(data))
            before = dep.stored_bytes()
            yield from client.clone(blob, 1)
            return before

        before = run(fab, scenario())
        assert dep.stored_bytes() == before


class TestSeedBlob:
    def test_seed_matches_upload_semantics(self):
        fab, dep, hosts, _ = make_deployment()
        data = pattern(5 * CHUNK + 17)
        rec = dep.seed_blob(Payload.from_bytes(data), CHUNK)
        assert fab.env.now == 0.0  # setup is instantaneous
        client = dep.client(hosts[2])

        def scenario():
            got = yield from client.read(rec.blob_id, rec.version, 0, len(data))
            return got

        assert run(fab, scenario()).to_bytes() == data

    def test_seed_opaque_blob_identity(self):
        fab, dep, hosts, _ = make_deployment()
        img = Payload.opaque("debian", 16 * CHUNK)
        rec = dep.seed_blob(img, CHUNK)
        client = dep.client(hosts[0])

        def scenario():
            got = yield from client.read(rec.blob_id, rec.version, 3 * CHUNK + 5, 2 * CHUNK)
            return got

        got = run(fab, scenario())
        assert got == img.slice(3 * CHUNK + 5, 5 * CHUNK + 5)


class TestReplicationAndFailure:
    def test_replicated_chunks_on_distinct_providers(self):
        fab, dep, hosts, _ = make_deployment(n_nodes=4)
        data = pattern(4 * CHUNK)
        rec = dep.seed_blob(Payload.from_bytes(data), CHUNK, replication=2)
        refs, _ = __import__("repro.blobseer.metadata", fromlist=["lookup_range"]).lookup_range(
            dep.metadata, rec.root, 0, 4
        )
        for ref in refs.values():
            assert len(set(ref.providers)) == 2

    def test_read_fails_over_to_replica(self):
        fab, dep, hosts, _ = make_deployment(n_nodes=4, meta_on_manager=True)
        data = pattern(4 * CHUNK)
        rec = dep.seed_blob(Payload.from_bytes(data), CHUNK, replication=2)
        client = dep.client(hosts[3])
        hosts[0].down = True

        def scenario():
            got = yield from client.read(rec.blob_id, rec.version, 0, len(data))
            return got

        assert run(fab, scenario()).to_bytes() == data

    def test_read_without_replica_fails_on_dead_provider(self):
        fab, dep, hosts, _ = make_deployment(n_nodes=4, meta_on_manager=True)
        data = pattern(4 * CHUNK)
        rec = dep.seed_blob(Payload.from_bytes(data), CHUNK, replication=1)
        client = dep.client(hosts[3])
        hosts[0].down = True

        def scenario():
            yield from client.read(rec.blob_id, rec.version, 0, len(data))

        with pytest.raises(ProviderUnavailableError):
            run(fab, scenario())

    def test_replication_bounded_by_providers(self):
        fab, dep, hosts, _ = make_deployment(n_nodes=2)
        with pytest.raises(StorageError):
            dep.seed_blob(Payload.zeros(CHUNK), CHUNK, replication=3)


class TestTimingSanity:
    def test_deterministic_timeline(self):
        def run_once():
            fab, dep, hosts, _ = make_deployment(seed=42)
            rec = dep.seed_blob(Payload.opaque("img", 32 * CHUNK), CHUNK)
            clients = [dep.client(h) for h in hosts]

            def reader(c):
                yield from c.read(rec.blob_id, rec.version, 0, 32 * CHUNK)

            procs = [fab.env.process(reader(c)) for c in clients]
            fab.run(fab.env.all_of(procs))
            return fab.env.now, fab.metrics.total_traffic()

        assert run_once() == run_once()
