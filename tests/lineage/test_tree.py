"""Lineage forest reconstruction: ancestry, clones-of-clones, shape queries."""

import pytest

from repro.blobseer.vmanager import LineageEntry
from repro.common.errors import LineageError
from repro.lineage import LineageForest

from helpers import run


class TestAncestry:
    def test_chain_ancestry_reaches_seed_genesis(self, chain):
        fab, dep, hosts, rec, records = chain
        forest = LineageForest.from_registry(dep.registry)
        head = records[-1]
        path = forest.ancestry(head.blob_id, head.version)
        # 5 commits + clone v1, then across the clone edge into the seed
        # blob's history (v1 and its create v0)
        assert path[0] == (head.blob_id, head.version)
        assert path[-1] == (rec.blob_id, 0)
        assert (rec.blob_id, rec.version) in path
        assert forest.depth(head.blob_id, head.version) == len(path) - 1

    def test_clone_of_a_clone_crosses_two_edges(self, chain):
        """Satellite: ancestry of a second-generation clone spans 3 blobs."""
        fab, dep, hosts, rec, records = chain
        client = dep.client(hosts[1])
        mid = records[3]  # an interior snapshot of the first clone

        def scenario():
            second = yield from client.clone(mid.blob_id, mid.version)
            return second

        second = run(fab, scenario())
        forest = LineageForest.from_registry(dep.registry)
        path = forest.ancestry(second.blob_id, second.version)
        blobs_on_path = {b for b, _ in path}
        assert blobs_on_path == {second.blob_id, mid.blob_id, rec.blob_id}
        # the clone head's parent edge lands exactly on the cloned version
        assert forest.entry(second.blob_id, second.version).parent == (
            mid.blob_id, mid.version,
        )
        assert (rec.blob_id, rec.version) in path
        assert (records[-1].blob_id, records[-1].version) not in path

    def test_branch_points_and_clone_edges(self, chain):
        fab, dep, hosts, rec, records = chain
        client = dep.client(hosts[1])
        mid = records[3]

        def scenario():
            yield from client.clone(mid.blob_id, mid.version)

        run(fab, scenario())
        forest = LineageForest.from_registry(dep.registry)
        # mid now has two children: the next commit and the clone head
        assert (mid.blob_id, mid.version) in forest.branch_points()
        children = [e.key for e in dep.registry.lineage_entries()
                    if e.parent == (mid.blob_id, mid.version)]
        assert len(children) == 2
        sources = {src for src, _ in forest.clone_edges()}
        assert (rec.blob_id, rec.version) in sources
        assert (mid.blob_id, mid.version) in sources

    def test_roots_and_heads(self, chain):
        fab, dep, hosts, rec, records = chain
        forest = LineageForest.from_registry(dep.registry)
        # every blob's create (v0) is a genesis; the chain head is a head
        assert (rec.blob_id, 0) in forest.roots()
        head = records[-1]
        assert (head.blob_id, head.version) in forest.heads()
        assert (head.blob_id, head.version - 1) not in forest.heads()

    def test_retirement_keeps_the_forest_node(self, chain):
        fab, dep, hosts, rec, records = chain
        mid = records[2]
        dep.registry.delete_version(mid.blob_id, mid.version)
        forest = LineageForest.from_registry(dep.registry)
        assert forest.entry(mid.blob_id, mid.version).retired
        # the chain through the retired node is still walkable
        head = records[-1]
        assert (mid.blob_id, mid.version) in forest.ancestry(
            head.blob_id, head.version
        )

    def test_unknown_version_raises(self, chain):
        fab, dep, hosts, rec, records = chain
        forest = LineageForest.from_registry(dep.registry)
        with pytest.raises(LineageError):
            forest.entry(999, 1)

    def test_cycle_detection(self):
        # the registry only logs parents published earlier; forge a log
        # whose parent edges loop
        forest = LineageForest([
            LineageEntry(1, 1, parent=(1, 2), kind="publish", root=None,
                         size=0, chunk_size=1),
            LineageEntry(1, 2, parent=(1, 1), kind="publish", root=None,
                         size=0, chunk_size=1),
        ])
        with pytest.raises(LineageError, match="cycle"):
            forest.ancestry(1, 2)


class TestStats:
    def test_stats_summarize_shape(self, chain):
        fab, dep, hosts, rec, records = chain
        stats = LineageForest.from_registry(dep.registry).stats()
        head = records[-1]
        assert stats["snapshots"] == len(dep.registry.lineage_entries())
        assert stats["clones"] == 1
        assert stats["retired"] == 0
        forest = LineageForest.from_registry(dep.registry)
        assert stats["max_depth"] == forest.depth(head.blob_id, head.version)
