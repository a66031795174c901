"""Snapshot-lineage control plane over the BlobSeer version manager.

The paper's title promises going *back and forth*; this package is the
"back" half. It reconstructs the full snapshot forest from the version
manager's lineage log (:mod:`~repro.lineage.tree`), attributes repository
footprint per version with exact sharing accounting
(:mod:`~repro.lineage.dedup`), boots a VM from any historical snapshot by
publishing it as a new branch head (:mod:`~repro.lineage.restore`), and
thins a deep chain's published versions for GC with a retention merge
(:mod:`~repro.lineage.compact`). A restore reads one lineage record at any
chain depth: shadowing and cloning make every snapshot a standalone image.

Everything here is strictly additive: a run that never imports this package
touches none of its code paths, and the registry-side lineage log is pure
bookkeeping with no simulated-time cost — figure timelines stay
bit-identical to a tree without the subsystem.
"""

from .compact import merge_chain
from .dedup import DedupReport, VersionSharing, dedup_accounting
from .restore import RestoreResult, restore_to_version
from .tree import LineageForest

__all__ = [
    "DedupReport",
    "LineageForest",
    "RestoreResult",
    "VersionSharing",
    "dedup_accounting",
    "merge_chain",
    "restore_to_version",
]
