"""Step-by-step forms of the fused event chains (test-only).

Production code prices a chain of contention-free delays when it starts and
waits for one event at the final instant (DESIGN.md §8, "event fusion"):
a metadata ``get_nodes`` call or scatter, a page-cache write, a flusher
quantum on an idle disk. Its correctness claim is *exact* equality — clock,
latency series, counters, traffic, stored bytes; everything except the event
count — with the obvious design that waits out every delay on its own, which
lives here:

* ``get_nodes`` as a generator handler (service timeout, then the read), so
  ``rpc.call`` takes its general path: request timeout, handler, response;
* ``gather`` as a scatter of ``rpc.call`` processes sharing one bootstrap,
  joined by ``AllOf`` (a single call runs inline);
* ``FileDevice.write`` as two timeouts with the budget check in between;
* the page-cache flusher as a process looping over ``Disk.write``.

:func:`unfused` swaps them in for the duration of a block. RPC handlers are
memoized per host, so build the cloud inside the block.
"""

from contextlib import contextmanager

import repro.simkit.rpc as rpc
from repro.blobseer.provider import NODE_WIRE_BYTES, MetadataProviderService
from repro.common.errors import ChunkNotFoundError
from repro.simkit.core import Timeout
from repro.simkit.disk import FLUSH_QUANTUM, FileDevice


def stepwise_get_nodes(self, caller, ids):
    yield Timeout(self.host.env, self.model.metadata_node_overhead * len(ids))
    nodes = self.nodes
    for nid in ids:
        if nid not in nodes:
            raise ChunkNotFoundError(f"metadata shard {self.host.name}: node {nid}")
    self.host.fabric.metrics.counters["meta-get"] += len(ids)
    return rpc.Sized(ids, NODE_WIRE_BYTES * len(ids))


def stepwise_gather(caller, calls):
    gens = [rpc.call(caller, *one) for one in calls]
    if len(gens) == 1:
        result = yield from gens[0]
        return [result]
    env = caller.env
    results = yield env.all_of(env.process_batch(gens))
    return results


def stepwise_write(self, nbytes):
    yield self.env.timeout(self.policy.data_op_overhead)
    if self.dirty + nbytes <= self.policy.dirty_budget:
        yield self.env.timeout(nbytes / self.policy.write_absorb_bandwidth)
    else:
        yield self.env.timeout(nbytes / self.disk.write_bandwidth)
    self.dirty += nbytes
    self._cached_bytes = min(self.size, self._cached_bytes + nbytes)
    self._ensure_flusher()


def process_ensure_flusher(self):
    if not self._flusher_active and self.dirty > 0:
        self._flusher_active = True
        self.env.process(_flusher(self), name="page-cache-flusher")


def _flusher(device):
    while device.dirty > 0:
        batch = min(device.dirty, FLUSH_QUANTUM)
        yield from device.disk.write(batch, sequential=True)
        device.dirty -= batch
    device._flusher_active = False


STAND_INS = (
    (MetadataProviderService, "rpc_get_nodes", stepwise_get_nodes),
    (rpc, "gather", stepwise_gather),
    (FileDevice, "write", stepwise_write),
    (FileDevice, "_ensure_flusher", process_ensure_flusher),
)


@contextmanager
def unfused():
    """Builds and runs inside the block take every delay as its own event."""
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in STAND_INS]
    for owner, name, stand_in in STAND_INS:
        setattr(owner, name, stand_in)
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
