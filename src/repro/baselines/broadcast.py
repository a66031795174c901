"""A taktuk-like broadcast tree (the prepropagation transport, §5.2).

taktuk [10] distributes data along an adaptive multicast tree built on the
postal model. For multi-gigabyte VM images its ``put`` pipeline behaves as a
**disk-staged store-and-forward tree**: a node receives the whole file to
its local disk before serving its children. That behaviour — not raw link
speed — is what makes prepropagation cost hundreds of seconds at
hundred-node scale in the paper, so it is modelled explicitly:

* reception = network flow (fair-shared) followed by the local disk write;
* the source pays a disk read (the image is cold on the NFS server); inner
  nodes forward from the page cache (the file was just received);
* children of one node are served concurrently but share its uplink;
  deeper levels start strictly later (no cross-level pipelining).

A block-pipelined variant (``block_size`` set) is provided as an ablation:
it forwards blocks as they arrive and is dramatically faster, but still
loses to lazy mirroring on network traffic and time-to-first-boot because it
must move the *entire* image everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from ..common.errors import SimulationError
from ..common.payload import Payload
from ..simkit.core import Event
from ..simkit.host import Fabric, Host


def build_tree(root: str, targets: Sequence[str], fanout: int) -> Dict[str, List[str]]:
    """BFS fanout-``k`` tree over ``targets`` rooted at ``root``."""
    if fanout < 1:
        raise SimulationError("fanout must be >= 1")
    children: Dict[str, List[str]] = {root: []}
    frontier = [root]
    queue = list(targets)
    while queue:
        next_frontier: List[str] = []
        for parent in frontier:
            for _ in range(fanout):
                if not queue:
                    break
                child = queue.pop(0)
                children[parent].append(child)
                children[child] = []
                next_frontier.append(child)
        if not next_frontier and queue:
            raise SimulationError("tree construction stalled")
        frontier = next_frontier
    return children


def tree_depth(children: Dict[str, List[str]], root: str) -> int:
    depth = 0
    frontier = [root]
    while frontier:
        nxt = [c for p in frontier for c in children[p]]
        if nxt:
            depth += 1
        frontier = nxt
    return depth


@dataclass
class BroadcastReport:
    """Outcome of one broadcast."""

    #: per-target completion time (file fully on local disk)
    finish_times: Dict[str, float] = field(default_factory=dict)
    #: time the slowest target finished
    makespan: float = 0.0
    depth: int = 0


def broadcast(
    fabric: Fabric,
    source: Host,
    targets: Sequence[Host],
    payload: Payload,
    dest_path: str,
    fanout: int = 2,
    block_size: Optional[int] = None,
) -> Generator[Event, None, BroadcastReport]:
    """Broadcast ``payload`` from ``source`` to every target's local disk.

    ``block_size=None`` -> taktuk-style store-and-forward (whole file per
    hop); otherwise pipelined forwarding at ``block_size`` granularity. The
    source reads each block from its disk (the file is cold on the NFS
    server); an inner node forwards from its page cache.
    Returns a :class:`BroadcastReport`; each target ends up with the content
    at ``dest_path`` in its local file namespace.
    """
    env = fabric.env
    nbytes = payload.size
    children = build_tree(source.name, [t.name for t in targets], fanout)
    hosts = {source.name: source, **{t.name: t for t in targets}}
    blocks = (
        [nbytes]
        if block_size is None
        else [min(block_size, nbytes - i) for i in range(0, nbytes, block_size)]
    )
    n_blocks = len(blocks)
    # block_ready[node][b] fires when node holds blocks 0..b locally
    block_ready: Dict[str, List[Event]] = {
        name: [env.event() for _ in range(n_blocks)] for name in hosts
    }
    report = BroadcastReport(depth=tree_depth(children, source.name))
    done_events: List[Event] = []

    def node_done(name: str) -> Generator:
        yield block_ready[name][-1]
        report.finish_times[name] = env.now

    def feeder(parent_name: str, child_name: str) -> Generator:
        parent = hosts[parent_name]
        child = hosts[child_name]
        for b, blen in enumerate(blocks):
            yield block_ready[parent_name][b]
            if parent_name == source.name:
                yield from parent.disk.read(blen, sequential=True)
            yield fabric.network.transfer(parent.nic, child.nic, blen, kind="broadcast")
            yield from child.disk.write(blen, sequential=True)
            block_ready[child_name][b].succeed()

    # the source holds everything from the start
    for ev in block_ready[source.name]:
        ev.succeed()
    for parent_name, kids in children.items():
        for child_name in kids:
            env.process(feeder(parent_name, child_name), name=f"bcast-{parent_name}->{child_name}")
    for target in targets:
        done_events.append(env.process(node_done(target.name), name=f"bcast-done-{target.name}"))

    yield env.all_of(done_events)
    report.makespan = max(report.finish_times.values(), default=env.now)
    # content plane: every target now holds the file locally
    for target in targets:
        if target.exists(dest_path):
            target.unlink(dest_path)
        f = target.create_file(dest_path, nbytes)
        f.write(0, payload)
    return report
