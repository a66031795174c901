"""Sharing accounting: conservation, replication, reclaimable-if-deleted."""

from repro.blobseer import collect_garbage
from repro.lineage import dedup_accounting

from helpers import CHUNK, IMG, build_chain, make


def row_for(report, blob_id, version):
    return next(
        r for r in report.per_version
        if r.blob_id == blob_id and r.version == version
    )


class TestConservation:
    def test_exclusive_plus_shared_equals_live(self, chain):
        fab, dep, hosts, rec, records = chain
        report = dedup_accounting(dep)
        assert report.conserves()
        assert report.total_exclusive + report.total_shared == report.live_bytes

    def test_matches_footprint_after_gc(self, chain):
        fab, dep, hosts, rec, records = chain
        mid = records[2]
        dep.registry.delete_version(mid.blob_id, mid.version)
        # retiring leaves garbage: live < stored until a sweep runs
        before = dedup_accounting(dep)
        assert before.conserves()
        collect_garbage(dep)
        after = dedup_accounting(dep)
        assert after.conserves()
        assert after.matches_footprint()
        assert after.live_bytes <= before.stored_bytes

    def test_base_image_is_shared_down_the_chain(self, chain):
        fab, dep, hosts, rec, records = chain
        report = dedup_accounting(dep)
        # the whole base image is shared: the seed's snapshot and every
        # chain version reference its chunks
        assert report.total_shared >= IMG
        assert 0.0 < report.sharing_ratio() < 1.0


class TestReplication:
    def test_accounting_counts_every_replica(self):
        """Satellite: physical accounting under replication_factor > 1."""
        single = make(replication=1)
        double = make(replication=2)
        for fab, dep, hosts, rec in (single, double):
            build_chain(fab, dep, hosts[0], rec, depth=4)
        r1 = dedup_accounting(single[1])
        r2 = dedup_accounting(double[1])
        assert r1.conserves() and r2.conserves()
        assert r2.matches_footprint()
        # replicas double the physical footprint, shared and exclusive alike
        assert r2.live_bytes == 2 * r1.live_bytes
        assert r2.total_shared == 2 * r1.total_shared
        assert r2.total_exclusive == 2 * r1.total_exclusive


class TestReclaimable:
    def test_reclaimable_predicts_gc(self, chain):
        """Deleting exactly one version frees exactly its exclusive bytes."""
        fab, dep, hosts, rec, records = chain
        mid = records[2]
        predicted = row_for(
            dedup_accounting(dep), mid.blob_id, mid.version
        ).exclusive_bytes
        stored_before = dep.stored_bytes()
        dep.registry.delete_version(mid.blob_id, mid.version)
        report = collect_garbage(dep)
        assert report.bytes_reclaimed == predicted
        assert dep.stored_bytes() == stored_before - predicted

    def test_head_rewrites_are_exclusive(self, chain):
        fab, dep, hosts, rec, records = chain
        head = records[-1]
        row = row_for(dedup_accounting(dep), head.blob_id, head.version)
        # the head's last diff chunk is referenced by it alone
        assert row.exclusive_bytes >= CHUNK
        assert row.chunks == IMG // CHUNK
