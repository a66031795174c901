"""The version manager's one-pass merge against the client walk it replaced.

``tests/reference_lineage.py`` keeps the client-side selection; the
registry must unpublish exactly the versions it selects, on chains of every
depth up to 40, at every ``keep_every`` up to 6, with and without a pinned
interior, a retired interior and a clone edge, and a merge is one RPC.
"""

import pytest

from repro.blobseer.metadata import MetadataStore
from repro.blobseer.vmanager import BlobRegistry
from repro.lineage import merge_chain
from reference_lineage import merge_selection

from helpers import CHUNK, IMG, build_chain, make, run

#: versions the clone source publishes before the CLONE
SOURCE_DEPTH = 3


def registry_chain(depth, clone_edge):
    """A registry whose target blob has ``depth`` snapshots on its chain;
    with ``clone_edge`` the chain starts as a CLONE of another blob's head.
    Returns the registry and the head record."""
    reg = BlobRegistry(MetadataStore())
    blob_id = reg.create_blob(IMG, CHUNK)
    if clone_edge:
        for _ in range(SOURCE_DEPTH):
            reg.publish(blob_id, None)
        blob_id = reg.clone(blob_id).blob_id
        depth -= 1
    for _ in range(depth):
        reg.publish(blob_id, None)
    return reg, reg.lookup(blob_id)


def published(reg):
    return {(rec.blob_id, rec.version) for rec in reg.live_records()}


@pytest.mark.parametrize("clone_edge", [False, True], ids=["one-blob", "clone-edge"])
@pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "pinned"])
@pytest.mark.parametrize("retired", [False, True], ids=["live", "retired-interior"])
def test_registry_merge_unpublishes_what_the_client_walk_selected(
    clone_edge, pinned, retired,
):
    for depth in range(1, 41):
        for keep_every in range(1, 7):
            reg, head = registry_chain(depth, clone_edge)
            interior = (head.blob_id, head.version // 2)
            if retired and 0 < interior[1] < head.version:
                reg.delete_version(*interior)
            if pinned:
                reg.pin_version(*interior)
            expected = merge_selection(reg.lineage_entry, head.blob_id, head.version,
                                       keep_every)
            before = published(reg)

            merged = reg.merge_chain(head.blob_id, head.version, keep_every)

            case = (depth, keep_every)
            assert merged == len(expected), case
            if pinned and interior in expected:
                # deferred while the lease is held, gone once it drops
                assert reg.is_published(*interior), case
            if pinned:
                reg.unpin_version(*interior)
            assert before - published(reg) == set(expected), case
            assert reg.is_published(head.blob_id, head.version), case


def test_a_merge_is_one_rpc():
    fab, dep, hosts, rec = make()
    head = build_chain(fab, dep, hosts[0], rec, depth=8)[-1]
    expected = merge_selection(dep.registry.lineage_entry, head.blob_id, head.version, 4)
    before = fab.metrics.counters["rpc"]
    merged = run(fab, merge_chain(dep, hosts[1], head.blob_id, head.version, keep_every=4))
    assert fab.metrics.counters["rpc"] - before == 1
    assert merged == len(expected) > 0
    assert not any(dep.registry.is_published(*key) for key in expected)
