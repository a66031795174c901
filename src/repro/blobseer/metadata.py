"""Versioned segment trees with shadowing and cloning (paper Fig. 3, [24]).

This is the metadata heart of BlobSeer, reimplemented as a pure data
structure so it can be tested exhaustively without the simulator.

A BLOB snapshot's metadata is a binary **segment tree over chunk indices**:
leaves cover one chunk each and carry a :class:`ChunkRef` (where the chunk's
data lives); an interior node covers the union of its children's ranges.
All nodes are **immutable** and stored in a :class:`MetadataStore` keyed by
a content-derived node id, so:

* **Shadowing** — writing a set of chunks builds new leaves plus new interior
  nodes *only along the changed paths*; every untouched subtree is shared by
  reference with the previous snapshot. A snapshot is fully described by its
  root id, and any snapshot can be read independently forever.
* **Cloning** — a clone is a brand-new root (for a new blob) whose children
  are the source root's children: O(1) metadata, zero data movement
  (Fig. 3(b); the paper notes the original BlobSeer lacked cloning and that
  it reduces to exactly this).
* Interior nodes may reference children "belonging to" older snapshots —
  sharing applies to unmodified *metadata*, not only unmodified chunks
  (Fig. 3(c)).

The tree spans ``[0, capacity)`` with ``capacity`` the smallest power of two
covering the chunk count; absent subtrees denote unwritten (hole) regions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..common.errors import SimulationError

#: A node identifier inside a MetadataStore.
NodeId = int


@dataclass(frozen=True, slots=True)
class ChunkRef:
    """Location record for one stored chunk: where its bytes live.

    ``key`` is globally unique (assigned at write time); ``providers`` are
    the data-provider host names holding a replica; ``size`` is the chunk's
    byte length (the tail chunk of a blob may be short).
    """

    key: int
    providers: Tuple[str, ...]
    size: int


@dataclass(frozen=True, slots=True)
class TreeNode:
    """An immutable segment-tree node covering chunk indices ``[lo, hi)``."""

    lo: int
    hi: int
    #: child node ids (interior nodes); None = unwritten subtree
    left: Optional[NodeId]
    right: Optional[NodeId]
    #: leaf payload (exactly when hi == lo + 1)
    ref: Optional[ChunkRef]

    @property
    def is_leaf(self) -> bool:
        return self.hi == self.lo + 1

    @property
    def mid(self) -> int:
        return (self.lo + self.hi) // 2


class MetadataStore:
    """Append-only store of immutable tree nodes.

    Node ids are dense integers; nodes are deduplicated structurally (two
    writes producing an identical subtree share one node), which both matches
    content-addressed designs and makes sharing statistics exact.
    """

    def __init__(self):
        #: every node, indexed by its id; append-only (only ``put`` writes
        #: it), so readers may index it directly
        self.nodes: List[TreeNode] = []
        self._index: Dict[Tuple, NodeId] = {}

    def put(self, node: TreeNode) -> NodeId:
        key = (node.lo, node.hi, node.left, node.right, node.ref)
        nid = self._index.get(key)
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(node)
            self._index[key] = nid
        return nid

    def get(self, nid: NodeId) -> TreeNode:
        try:
            return self.nodes[nid]
        except IndexError:
            raise SimulationError(f"unknown metadata node {nid}") from None

    def __len__(self) -> int:
        return len(self.nodes)


def capacity_for(n_chunks: int) -> int:
    """Smallest power of two >= max(1, n_chunks)."""
    cap = 1
    while cap < n_chunks:
        cap *= 2
    return cap


# --------------------------------------------------------------------------- #
# construction and update
# --------------------------------------------------------------------------- #
def build_tree(store: MetadataStore, refs: Dict[int, ChunkRef], n_chunks: int) -> Optional[NodeId]:
    """Build a snapshot tree holding ``refs`` over an index space of ``n_chunks``.

    Returns the root id, or None for an entirely empty blob.
    """
    cap = capacity_for(n_chunks)
    keys = sorted(refs)
    return _build(store, refs, keys, 0, len(keys), 0, cap)


def _build(
    store: MetadataStore,
    refs: Dict[int, ChunkRef],
    keys: List[int],
    klo: int,
    khi: int,
    lo: int,
    hi: int,
) -> Optional[NodeId]:
    # ``keys[klo:khi]`` are the sorted ref indices inside ``[lo, hi)``: the
    # recursion splits index ranges by bisection instead of copying dicts,
    # so a dense n-chunk build is O(n log n) comparisons and zero rebuilds.
    if klo == khi:
        return None
    if hi - lo == 1:
        return store.put(TreeNode(lo, hi, None, None, refs[lo]))
    mid = (lo + hi) // 2
    split = bisect_left(keys, mid, klo, khi)
    left = _build(store, refs, keys, klo, split, lo, mid)
    right = _build(store, refs, keys, split, khi, mid, hi)
    if left is None and right is None:
        return None
    return store.put(TreeNode(lo, hi, left, right, None))


def write_chunks(
    store: MetadataStore,
    root: Optional[NodeId],
    updates: Dict[int, ChunkRef],
    n_chunks: int,
) -> Optional[NodeId]:
    """Produce the root of a new snapshot = old snapshot overwritten by ``updates``.

    Implements shadowing: only the paths from the root to updated leaves are
    new nodes; all other subtrees are shared with the input snapshot.
    """
    if not updates:
        return root
    cap = capacity_for(n_chunks)
    if root is not None:
        node = store.get(root)
        if (node.lo, node.hi) != (0, cap):
            raise SimulationError(
                f"root covers [{node.lo},{node.hi}), expected [0,{cap}) "
                "(blob resizing is not supported)"
            )
    keys = sorted(updates)
    return _write(store, root, updates, keys, 0, len(keys), 0, cap)


def _write(
    store: MetadataStore,
    nid: Optional[NodeId],
    updates: Dict[int, ChunkRef],
    keys: List[int],
    klo: int,
    khi: int,
    lo: int,
    hi: int,
) -> Optional[NodeId]:
    # Same index-range bisection as _build: no per-level dict filtering.
    if klo == khi:
        return nid
    if hi - lo == 1:
        return store.put(TreeNode(lo, hi, None, None, updates[lo]))
    mid = (lo + hi) // 2
    node = store.get(nid) if nid is not None else None
    split = bisect_left(keys, mid, klo, khi)
    left = _write(store, node.left if node else None, updates, keys, klo, split, lo, mid)
    right = _write(store, node.right if node else None, updates, keys, split, khi, mid, hi)
    if node is not None and left == node.left and right == node.right:
        return nid  # nothing changed in this subtree
    if left is None and right is None:
        return None
    return store.put(TreeNode(lo, hi, left, right, None))


def clone_root(store: MetadataStore, root: Optional[NodeId]) -> Optional[NodeId]:
    """Clone a snapshot into a new blob: a fresh root sharing both children.

    Per Fig. 3(b) the clone gets its *own* root node (it belongs to the new
    blob and will evolve independently) whose children are shared. With a
    structurally-deduplicating store the fresh root coincides with the source
    root — which is exactly the "minimal overhead in space and time" the
    paper claims; divergence happens on the first subsequent write.
    """
    if root is None:
        return None
    node = store.get(root)
    return store.put(TreeNode(node.lo, node.hi, node.left, node.right, node.ref))


# --------------------------------------------------------------------------- #
# lookup
# --------------------------------------------------------------------------- #
def lookup(store: MetadataStore, root: Optional[NodeId], index: int) -> Optional[ChunkRef]:
    """Find the chunk ref for one chunk index (None for holes)."""
    nid = root
    while nid is not None:
        node = store.get(nid)
        if node.is_leaf:
            return node.ref if node.lo == index else None
        nid = node.left if index < node.mid else node.right
    return None


def lookup_range(
    store: MetadataStore, root: Optional[NodeId], lo: int, hi: int
) -> Tuple[Dict[int, ChunkRef], int]:
    """Collect refs for chunk indices in ``[lo, hi)``.

    Returns ``(refs, nodes_visited)``; the visit count feeds the simulated
    metadata-access cost (each visited node is one metadata-provider fetch).
    """
    refs: Dict[int, ChunkRef] = {}
    visited = 0
    stack = [root] if root is not None else []
    while stack:
        nid = stack.pop()
        node = store.get(nid)
        visited += 1
        if node.hi <= lo or node.lo >= hi:
            continue
        if node.is_leaf:
            if node.ref is not None:
                refs[node.lo] = node.ref
            continue
        if node.right is not None:
            stack.append(node.right)
        if node.left is not None:
            stack.append(node.left)
    return refs, visited


def reachable_nodes(store: MetadataStore, root: Optional[NodeId]) -> Set[NodeId]:
    """All node ids reachable from a root (sharing statistics, GC support)."""
    seen: Set[NodeId] = set()
    stack = [root] if root is not None else []
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        node = store.get(nid)
        for child in (node.left, node.right):
            if child is not None:
                stack.append(child)
    return seen
