"""End-to-end restore-to-version and chain merge over a live deployment."""

import pytest

from repro import obs
from repro.blobseer import collect_garbage
from repro.common.errors import LineageError, MirrorStateError
from repro.common.payload import Payload
from repro.lineage import LineageForest, merge_chain, restore_to_version

from helpers import CHUNK, IMG, build_chain, make, pattern, run


def expected_bytes(depth):
    """Image content after ``depth`` one-chunk diffs (see build_chain)."""
    data = bytearray(pattern(IMG))
    for i in range(depth):
        off = (i % 8) * CHUNK
        data[off:off + CHUNK] = pattern(CHUNK, 20 + i)
    return bytes(data)


def restore(fab, dep, host, blob_id, version, **kw):
    return run(fab, restore_to_version(dep, host, blob_id, version, **kw))


def merge(fab, dep, host, head, keep_every):
    return run(fab, merge_chain(
        dep, host, head.blob_id, head.version, keep_every=keep_every,
    ))


class TestRestore:
    def test_restore_mid_chain_reads_historical_content(self, chain):
        fab, dep, hosts, rec, records = chain
        mid = records[2]  # after 2 diffs
        res = restore(fab, dep, hosts[2], mid.blob_id, mid.version)
        assert res.source == (mid.blob_id, mid.version)
        assert res.blob_id != mid.blob_id  # a fresh branch, not a rewrite
        assert not res.retired_source

        def read_all():
            p = yield from res.backend.read(0, IMG)
            return p

        assert run(fab, read_all()).to_bytes() == expected_bytes(2)

    def test_restored_head_joins_the_forest(self, chain):
        fab, dep, hosts, rec, records = chain
        mid = records[2]
        res = restore(fab, dep, hosts[2], mid.blob_id, mid.version)
        forest = LineageForest.from_registry(dep.registry)
        assert forest.entry(res.blob_id, res.version).parent == (
            mid.blob_id, mid.version,
        )
        assert (rec.blob_id, rec.version) in forest.ancestry(res.blob_id, res.version)

    def test_restore_reads_one_lineage_entry(self):
        """A snapshot is a standalone image: no ancestor record is read, so
        the restore of a depth-8 head costs what a depth-2 head does."""
        results = []
        for depth in (2, 8):
            fab, dep, hosts, rec = make()
            head = build_chain(fab, dep, hosts[0], rec, depth=depth)[-1]
            tracer = obs.install_tracer(fab)
            res = restore(fab, dep, hosts[2], head.blob_id, head.version)
            lookups = [s for s in tracer.spans
                       if s.name == "rpc:blob-vmgr.lineage_entry"]
            assert len(lookups) == 1, depth
            assert res.restore_time >= res.lookup_time + res.clone_time > 0
            results.append(res)
        shallow, deep = results
        assert deep.restore_time == pytest.approx(shallow.restore_time, rel=0, abs=1e-12)

    def test_restore_from_retired_mid_chain(self, chain):
        """Satellite: a retired version restores until GC reclaims it."""
        fab, dep, hosts, rec, records = chain
        mid = records[2]
        dep.registry.delete_version(mid.blob_id, mid.version)
        res = restore(fab, dep, hosts[2], mid.blob_id, mid.version)
        assert res.retired_source

        def read_all():
            p = yield from res.backend.read(0, IMG)
            return p

        assert run(fab, read_all()).to_bytes() == expected_bytes(2)
        # no leaked leases or in-flight pins
        assert dep.registry.pin_count(mid.blob_id, mid.version) == 0

    def test_restore_after_gc_raises(self, chain):
        fab, dep, hosts, rec, records = chain
        # the head's last diff is exclusive to it, so retiring the head and
        # sweeping actually reclaims chunks (an interior version's diffs
        # stay alive through its descendants and remain restorable)
        head = records[-1]
        dep.registry.delete_version(head.blob_id, head.version)
        assert collect_garbage(dep).bytes_reclaimed > 0
        with pytest.raises(LineageError, match="garbage-collected"):
            restore(fab, dep, hosts[2], head.blob_id, head.version)
        # the failed restore leaked nothing
        assert dep.registry.pin_count(head.blob_id, head.version) == 0

    def test_two_restores_of_one_version_keep_their_own_mirrors(self, chain):
        """Two restores of one version on one host are two instances: the
        second must not reopen the first's mirror and clobber its writes."""
        fab, dep, hosts, rec, records = chain
        mid = records[2]
        first = restore(fab, dep, hosts[1], mid.blob_id, mid.version)
        own = Payload.from_bytes(pattern(CHUNK, 99))

        def write():
            yield from first.backend.write(0, own)

        def read(backend):
            p = yield from backend.read(0, CHUNK)
            return p.to_bytes()

        run(fab, write())
        second = restore(fab, dep, hosts[1], mid.blob_id, mid.version)
        assert run(fab, read(second.backend)) == expected_bytes(2)[:CHUNK]
        assert run(fab, read(first.backend)) == own.to_bytes()

    def test_a_held_mirror_path_is_not_reopened(self, chain):
        fab, dep, hosts, rec, records = chain
        mid = records[2]
        restore(fab, dep, hosts[1], mid.blob_id, mid.version, path="/mirror/mine")
        with pytest.raises(MirrorStateError, match="held by another open handle"):
            restore(fab, dep, hosts[1], mid.blob_id, mid.version, path="/mirror/mine")
        # the refused restore leaked no lease
        assert dep.registry.pin_count(mid.blob_id, mid.version) == 0

    def test_restore_pin_defers_concurrent_teardown(self, chain):
        """A teardown delete_blob racing a restore loses gracefully."""
        fab, dep, hosts, rec, records = chain
        head = records[-1]
        outcome = {}

        def racing():
            proc = fab.env.process(restore_to_version(
                dep, hosts[2], head.blob_id, head.version
            ))
            # fire the teardown while the restore is mid-flight
            yield fab.env.timeout(1e-6)
            dep.registry.delete_blob(head.blob_id)
            res = yield proc
            outcome["res"] = res

        run(fab, racing())
        res = outcome["res"]
        # the restore completed against the pinned source; the deferred
        # teardown then retired the whole source blob
        assert res.source == (head.blob_id, head.version)
        live = {rec.blob_id for rec in dep.registry.live_records()}
        assert head.blob_id not in live
        assert res.blob_id in live


class TestCompaction:
    def test_merge_is_idempotent(self):
        fab, dep, hosts, rec = make()
        head = build_chain(fab, dep, hosts[0], rec, depth=9)[-1]
        assert merge(fab, dep, hosts[1], head, keep_every=3) > 0
        assert merge(fab, dep, hosts[1], head, keep_every=3) == 0

    def test_merge_unpublishes_interiors_keeps_anchors(self):
        fab, dep, hosts, rec = make()
        # every commit rewrites chunk 0, so each interior diff is
        # superseded — exactly what delta-merge reclaims
        records = build_chain(fab, dep, hosts[0], rec, depth=8, chunk_index=0)
        head = records[-1]
        live_before = len(dep.registry.live_records())
        merged = merge(fab, dep, hosts[1], head, keep_every=4)
        assert merged > 0
        # every merged commit surrenders its superseded diff; the merged
        # clone head (v1) shares the seed's tree and owns no diff
        assert collect_garbage(dep).bytes_reclaimed == (merged - 1) * CHUNK
        live_after = len(dep.registry.live_records())
        assert live_after == live_before - merged
        # head and genesis survive; the chain still restores correctly
        assert dep.registry.is_published(head.blob_id, head.version)
        res = restore(fab, dep, hosts[2], head.blob_id, head.version)

        def read_all():
            p = yield from res.backend.read(0, IMG)
            return p

        expected = bytearray(pattern(IMG))
        expected[0:CHUNK] = pattern(CHUNK, 20 + 7)  # the last rewrite wins
        assert run(fab, read_all()).to_bytes() == bytes(expected)

    def test_merge_defers_pinned_interior(self):
        """Satellite: merge cannot rip a version out from under a restore."""
        fab, dep, hosts, rec = make()
        records = build_chain(fab, dep, hosts[0], rec, depth=8)
        # records[3] (v4) is a non-anchor interior at keep_every=4
        # (anchors land on v3 and v7, counted from the seed's genesis)
        head, interior = records[-1], records[3]
        dep.registry.pin_version(interior.blob_id, interior.version)
        merge(fab, dep, hosts[1], head, keep_every=4)
        # still published while the lease is held, gone after
        assert dep.registry.is_published(interior.blob_id, interior.version)
        dep.registry.unpin_version(interior.blob_id, interior.version)
        assert not dep.registry.is_published(interior.blob_id, interior.version)

    def test_merge_spares_the_clone_sources_history(self, chain):
        fab, dep, hosts, rec, records = chain
        merge(fab, dep, hosts[1], records[-1], keep_every=2)
        # the seed blob (the clone source) is untouched by the merge
        assert dep.registry.is_published(rec.blob_id, rec.version)

    def test_invalid_keep_every_raises(self, chain):
        fab, dep, hosts, rec, records = chain
        with pytest.raises(LineageError):
            merge(fab, dep, hosts[1], records[-1], keep_every=0)
