"""Baseline systems the paper compares against.

* :mod:`~repro.baselines.qcow2` — copy-on-write image format with backing files;
* :mod:`~repro.baselines.pvfs` — striped distributed file system;
* :mod:`~repro.baselines.nfs` — central file server;
* :mod:`~repro.baselines.broadcast` — taktuk-style multicast tree;
* :mod:`~repro.baselines.prepropagation` — full-image deployment scheme.
"""

from .broadcast import BroadcastReport, broadcast, build_tree, tree_depth
from .nfs import NfsServer
from .prepropagation import prepropagate
from .pvfs import PvfsClient, PvfsDeployment, PvfsFileMeta
from .qcow2 import DEFAULT_CLUSTER, IoReport, Qcow2Image

__all__ = [
    "BroadcastReport",
    "DEFAULT_CLUSTER",
    "IoReport",
    "NfsServer",
    "PvfsClient",
    "PvfsDeployment",
    "PvfsFileMeta",
    "Qcow2Image",
    "broadcast",
    "build_tree",
    "prepropagate",
    "tree_depth",
]
