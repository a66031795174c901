"""The client-side chain-merge walk, kept as a reference (test-only).

:meth:`repro.blobseer.vmanager.BlobRegistry.merge_chain` thins a chain in
one pass where the lineage log lives. The repository shipped a client walk
before it: ``lineage.merge_chain`` fetched one lineage entry per chain
record from the head to the genesis, then sent one ``delete_version`` per
interior entry of the target blob that was live and off the anchor grid.
:func:`merge_selection` is that selection as a pure function over the log.

``tests/lineage/test_merge_reference.py`` checks that the registry's merge
unpublishes exactly the versions this walk selects.
"""

from typing import Callable, List, Tuple

VersionKey = Tuple[int, int]


def merge_selection(
    entry: Callable, blob_id: int, version: int, keep_every: int,
) -> List[VersionKey]:
    """The versions the client walk unpublished, in walk order.

    ``entry(blob_id, version)`` reads one lineage record. The head, the
    genesis, every ``keep_every``-th position counted from the genesis, a
    retired entry and an entry of another blob (a clone source's history)
    are kept.
    """
    entries = []
    key = (blob_id, version)
    while key is not None:
        record = entry(*key)
        entries.append(record)
        key = record.parent

    picked = []
    genesis_pos = len(entries) - 1
    for i, record in enumerate(entries[1:-1], start=1):
        if record.blob_id != blob_id or record.retired:
            continue
        if (genesis_pos - i) % keep_every == 0:
            continue  # an anchor
        picked.append((record.blob_id, record.version))
    return picked
