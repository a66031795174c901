"""A functional reimplementation of the BlobSeer versioning storage service.

Striping, distributed versioned segment-tree metadata with shadowing and
cloning (paper Fig. 3), asynchronous chunk writes, and a publish protocol
with a totally ordered snapshot history per BLOB.
"""

from .client import BlobClient, LATEST
from .gc import GcReport, collect_garbage
from .metadata import (
    ChunkRef,
    MetadataStore,
    TreeNode,
    build_tree,
    capacity_for,
    clone_root,
    lookup,
    lookup_range,
    reachable_nodes,
    write_chunks,
)
from .pmanager import PlacementPolicy
from .service import BlobSeerDeployment
from .store import ChunkStore, KeyMinter
from .vmanager import BlobRegistry, LineageEntry, SnapshotRecord

__all__ = [
    "BlobClient",
    "BlobRegistry",
    "BlobSeerDeployment",
    "ChunkRef",
    "ChunkStore",
    "GcReport",
    "collect_garbage",
    "KeyMinter",
    "LATEST",
    "LineageEntry",
    "MetadataStore",
    "PlacementPolicy",
    "SnapshotRecord",
    "TreeNode",
    "build_tree",
    "capacity_for",
    "clone_root",
    "lookup",
    "lookup_range",
    "reachable_nodes",
    "write_chunks",
]
