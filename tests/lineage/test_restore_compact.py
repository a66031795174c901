"""End-to-end restore-to-version and chain compaction over a live deployment."""

import pytest

from repro.blobseer import collect_garbage
from repro.common.errors import LineageError
from repro.lineage import LineageForest, compact_chain, restore_to_version

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


def compact(fab, dep, host, blob_id, **kw):
    return run(fab, compact_chain(dep, host, blob_id, **kw))


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

    def test_scan_pays_one_hop_per_ancestor(self, chain):
        fab, dep, hosts, rec, records = chain
        head = records[-1]
        res = restore(fab, dep, hosts[2], head.blob_id, head.version)
        forest = LineageForest.from_registry(dep.registry)
        raw = forest.ancestry(head.blob_id, head.version)
        assert res.scan_hops == len(raw)
        assert res.chain == tuple(raw)
        assert res.scan_time > 0
        assert res.restore_time >= res.scan_time + res.clone_time

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

    def test_restore_pin_defers_concurrent_teardown(self, chain):
        """A teardown delete_blob racing a restore loses gracefully."""
        fab, dep, hosts, rec, records = chain
        head = records[-1]
        outcome = {}

        def racing():
            proc = fab.env.process(restore_to_version(
                dep, hosts[2], head.blob_id, head.version
            ))
            # fire the teardown while the restore scan is mid-flight
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
    def test_flatten_bounds_the_walk(self):
        fab, dep, hosts, rec = make()
        records = build_chain(fab, dep, hosts[0], rec, depth=12)
        head = records[-1]
        before = restore(fab, dep, hosts[2], head.blob_id, head.version)
        report = compact(
            fab, dep, hosts[1], head.blob_id, policy="flatten", depth_bound=3
        )
        assert report.skips_written > 0
        assert report.versions_merged == 0
        assert report.depth_after <= 3
        after = restore(fab, dep, hosts[2], head.blob_id, head.version)
        assert after.scan_hops <= 3 + 1
        assert after.scan_hops < before.scan_hops
        assert after.scan_time < before.scan_time

        def read_all():
            p = yield from after.backend.read(0, IMG)
            return p

        assert run(fab, read_all()).to_bytes() == expected_bytes(12)

    def test_flatten_is_idempotent(self):
        fab, dep, hosts, rec = make()
        records = build_chain(fab, dep, hosts[0], rec, depth=9)
        head = records[-1]
        first = compact(
            fab, dep, hosts[1], head.blob_id, policy="flatten", depth_bound=3
        )
        second = compact(
            fab, dep, hosts[1], head.blob_id, policy="flatten", depth_bound=3
        )
        assert first.skips_written > 0
        assert second.skips_written == 0
        assert second.depth_after == first.depth_after

    def test_merge_unpublishes_interiors_keeps_anchors(self):
        fab, dep, hosts, rec = make()
        # every commit rewrites chunk 0, so each interior diff is
        # superseded — exactly what delta-merge reclaims
        records = build_chain(fab, dep, hosts[0], rec, depth=8, chunk_index=0)
        head = records[-1]
        live_before = len(dep.registry.live_records())
        report = compact(
            fab, dep, hosts[1], head.blob_id,
            policy="merge", depth_bound=4, gc=True,
        )
        assert report.versions_merged > 0
        # every merged commit surrenders its superseded diff; the merged
        # clone head (v1) shares the seed's tree and owns no diff
        assert report.bytes_reclaimed == (report.versions_merged - 1) * CHUNK
        live_after = len(dep.registry.live_records())
        assert live_after == live_before - report.versions_merged
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
        # records[3] (v4) is a non-anchor interior at depth_bound=4
        # (anchors land on v3 and v7, counted from the seed's genesis)
        head, interior = records[-1], records[3]
        dep.registry.pin_version(interior.blob_id, interior.version)
        compact(
            fab, dep, hosts[1], head.blob_id, policy="merge", depth_bound=4
        )
        # still published while the lease is held, gone after
        assert dep.registry.is_published(interior.blob_id, interior.version)
        dep.registry.unpin_version(interior.blob_id, interior.version)
        assert not dep.registry.is_published(interior.blob_id, interior.version)

    def test_merge_spares_the_clone_sources_history(self, chain):
        fab, dep, hosts, rec, records = chain
        head = records[-1]
        compact(
            fab, dep, hosts[1], head.blob_id, policy="merge", depth_bound=2
        )
        # the seed blob (the clone source) is untouched by the merge
        assert dep.registry.is_published(rec.blob_id, rec.version)

    def test_invalid_policy_and_bound_raise(self, chain):
        fab, dep, hosts, rec, records = chain
        head = records[-1]
        with pytest.raises(LineageError):
            compact(fab, dep, hosts[1], head.blob_id, policy="squash")
        with pytest.raises(LineageError):
            compact(fab, dep, hosts[1], head.blob_id, depth_bound=0)
