"""Tests for versioned segment trees: shadowing, cloning, sharing (Fig. 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blobseer.metadata import (
    ChunkRef,
    MetadataStore,
    build_tree,
    capacity_for,
    clone_root,
    lookup,
    lookup_range,
    reachable_nodes,
    write_chunks,
)


def ref(key, size=256, provider="p0"):
    return ChunkRef(key, (provider,), size)


class TestCapacity:
    @pytest.mark.parametrize(
        "n,cap", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (8192, 8192), (8193, 16384)]
    )
    def test_values(self, n, cap):
        assert capacity_for(n) == cap


class TestBuildLookup:
    def test_empty_tree(self):
        store = MetadataStore()
        assert build_tree(store, {}, 8) is None

    def test_full_tree(self):
        store = MetadataStore()
        refs = {i: ref(i) for i in range(8)}
        root = build_tree(store, refs, 8)
        for i in range(8):
            assert lookup(store, root, i) == refs[i]

    def test_sparse_tree_holes(self):
        store = MetadataStore()
        root = build_tree(store, {2: ref(2), 5: ref(5)}, 8)
        assert lookup(store, root, 2) == ref(2)
        assert lookup(store, root, 5) == ref(5)
        for i in (0, 1, 3, 4, 6, 7):
            assert lookup(store, root, i) is None

    def test_non_power_of_two_chunks(self):
        store = MetadataStore()
        refs = {i: ref(i) for i in range(5)}
        root = build_tree(store, refs, 5)
        for i in range(5):
            assert lookup(store, root, i) == refs[i]
        assert lookup(store, root, 6) is None

    def test_lookup_range(self):
        store = MetadataStore()
        refs = {i: ref(i) for i in range(16)}
        root = build_tree(store, refs, 16)
        got, visited = lookup_range(store, root, 4, 9)
        assert got == {i: refs[i] for i in range(4, 9)}
        assert visited >= 5  # at least the leaves

    def test_lookup_range_visits_few_nodes_for_point_query(self):
        store = MetadataStore()
        refs = {i: ref(i) for i in range(1024)}
        root = build_tree(store, refs, 1024)
        _, visited = lookup_range(store, root, 500, 501)
        # a point query should walk roughly one root-to-leaf path
        assert visited <= 2 * 11

    def test_single_chunk_blob(self):
        store = MetadataStore()
        root = build_tree(store, {0: ref(0)}, 1)
        assert lookup(store, root, 0) == ref(0)


class TestShadowing:
    def test_write_creates_new_snapshot_old_intact(self):
        store = MetadataStore()
        v1 = build_tree(store, {i: ref(i) for i in range(8)}, 8)
        v2 = write_chunks(store, v1, {3: ref(103)}, 8)
        assert lookup(store, v1, 3) == ref(3)  # old snapshot unchanged
        assert lookup(store, v2, 3) == ref(103)
        for i in (0, 1, 2, 4, 5, 6, 7):
            assert lookup(store, v2, i) == ref(i)

    def test_write_shares_untouched_subtrees(self):
        store = MetadataStore()
        v1 = build_tree(store, {i: ref(i) for i in range(8)}, 8)
        n_before = len(reachable_nodes(store, v1))
        v2 = write_chunks(store, v1, {0: ref(100)}, 8)
        n1, n2 = reachable_nodes(store, v1), reachable_nodes(store, v2)
        # Only the path to leaf 0 is new: depth log2(8)=3 + leaf = 4 new nodes.
        assert len(n1 | n2) == n_before + 4
        assert len(n1) + len(n2) == 2 * n_before

    def test_write_into_hole(self):
        store = MetadataStore()
        v1 = build_tree(store, {0: ref(0)}, 8)
        v2 = write_chunks(store, v1, {7: ref(7)}, 8)
        assert lookup(store, v2, 0) == ref(0)
        assert lookup(store, v2, 7) == ref(7)
        assert lookup(store, v1, 7) is None

    def test_write_on_empty_root(self):
        store = MetadataStore()
        v1 = write_chunks(store, None, {2: ref(2)}, 8)
        assert lookup(store, v1, 2) == ref(2)

    def test_empty_update_returns_same_root(self):
        store = MetadataStore()
        v1 = build_tree(store, {0: ref(0)}, 8)
        assert write_chunks(store, v1, {}, 8) == v1

    def test_identical_rewrite_is_shared(self):
        """Writing the same ref produces the same root (store deduplicates)."""
        store = MetadataStore()
        v1 = build_tree(store, {i: ref(i) for i in range(4)}, 4)
        v2 = write_chunks(store, v1, {1: ref(1)}, 4)
        assert v2 == v1

    def test_consecutive_commits_totally_ordered_chain(self):
        """Fig. 3(c): two consecutive COMMITs to image B."""
        store = MetadataStore()
        a1 = build_tree(store, {i: ref(i) for i in range(4)}, 4)
        b1 = clone_root(store, a1)
        b2 = write_chunks(store, b1, {1: ref(21), 2: ref(22)}, 4)
        b3 = write_chunks(store, b2, {3: ref(33)}, 4)
        # every snapshot independently readable
        assert [lookup(store, a1, i).key for i in range(4)] == [0, 1, 2, 3]
        assert [lookup(store, b2, i).key for i in range(4)] == [0, 21, 22, 3]
        assert [lookup(store, b3, i).key for i in range(4)] == [0, 21, 22, 33]


class TestCloning:
    def test_clone_reads_identically(self):
        store = MetadataStore()
        a = build_tree(store, {i: ref(i) for i in range(8)}, 8)
        b = clone_root(store, a)
        for i in range(8):
            assert lookup(store, b, i) == lookup(store, a, i)

    def test_clone_is_constant_space(self):
        store = MetadataStore()
        a = build_tree(store, {i: ref(i) for i in range(64)}, 64)
        before = len(store)
        clone_root(store, a)
        assert len(store) - before <= 1  # at most one new root node

    def test_clone_diverges_without_interference(self):
        store = MetadataStore()
        a = build_tree(store, {i: ref(i) for i in range(8)}, 8)
        b = clone_root(store, a)
        b2 = write_chunks(store, b, {0: ref(200)}, 8)
        a2 = write_chunks(store, a, {0: ref(100)}, 8)
        assert lookup(store, a2, 0).key == 100
        assert lookup(store, b2, 0).key == 200
        assert lookup(store, a, 0).key == 0
        assert lookup(store, b, 0).key == 0

    def test_clone_of_empty(self):
        store = MetadataStore()
        assert clone_root(store, None) is None


class TestSharingStats:
    def test_many_snapshots_linear_not_quadratic(self):
        """N snapshots each touching one chunk: metadata grows O(N log C)."""
        store = MetadataStore()
        C = 256
        root = build_tree(store, {i: ref(i) for i in range(C)}, C)
        roots = [root]
        for k in range(20):
            root = write_chunks(store, root, {k % C: ref(1000 + k)}, C)
            roots.append(root)
        per_root = [reachable_nodes(store, r) for r in roots]
        depth = 9  # log2(256) + 1 levels
        assert len(set().union(*per_root)) <= (2 * C - 1) + 20 * depth
        # naive copies would need 21 full trees
        assert sum(len(nodes) for nodes in per_root) >= 21 * C


# --------------------------------------------------------------------------- #
# property tests: snapshots behave like immutable dict versions
# --------------------------------------------------------------------------- #
N_CHUNKS = 16

write_op = st.dictionaries(
    st.integers(0, N_CHUNKS - 1), st.integers(100, 10_000), min_size=1, max_size=6
)


@settings(max_examples=120)
@given(st.lists(write_op, min_size=1, max_size=10))
def test_every_snapshot_matches_dict_model(writes):
    store = MetadataStore()
    root = None
    model = {}
    history = [(root, dict(model))]
    for batch in writes:
        updates = {idx: ref(key) for idx, key in batch.items()}
        root = write_chunks(store, root, updates, N_CHUNKS)
        model.update(batch)
        history.append((root, dict(model)))
    for snap_root, snap_model in history:
        for i in range(N_CHUNKS):
            got = lookup(store, snap_root, i)
            if i in snap_model:
                assert got is not None and got.key == snap_model[i]
            else:
                assert got is None
        got_range, _ = lookup_range(store, snap_root, 0, N_CHUNKS)
        assert {i: r.key for i, r in got_range.items()} == snap_model


@settings(max_examples=80)
@given(st.lists(write_op, min_size=1, max_size=8), st.integers(0, 7))
def test_clone_then_diverge_property(writes, split_at):
    store = MetadataStore()
    root = None
    for batch in writes[: split_at % max(1, len(writes))] or writes[:1]:
        root = write_chunks(store, root, {i: ref(k) for i, k in batch.items()}, N_CHUNKS)
    frozen, _ = lookup_range(store, root, 0, N_CHUNKS)
    cloned = clone_root(store, root)
    # heavy divergence on the clone
    for batch in writes:
        cloned = write_chunks(
            store, cloned, {i: ref(k + 50_000) for i, k in batch.items()}, N_CHUNKS
        )
    after, _ = lookup_range(store, root, 0, N_CHUNKS)
    assert after == frozen  # source snapshot is immutable
