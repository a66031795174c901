"""Host-time ledger: timing wrappers around the layers' public callables.

The traced (H) repetition of a workload answers "which layer did the host
seconds go to?" without touching ``src/``: :func:`install` replaces each
public callable listed in :data:`TARGETS` by a wrapper that switches a
single *current layer* register on entry and exit, so every host second of
the run is charged to exactly one layer (self time, children excluded).

* A plain call is timed from entry to return.
* A call that returns a generator hands back a :class:`GenProxy`, which
  forwards ``send``/``throw``/``close`` and charges every resumption to the
  callable's layer — simulated activities are generators, so the work of a
  call is spread over many resumptions driven by the event loop.
* A process spawned through ``Environment.process``/``process_batch`` while
  layer L is current is wrapped in a proxy charged to L, so private helper
  processes (parallel chunk fetches, the page-cache flusher, the churn
  lifecycle) are attributed to the layer that started them and
  ``simkit.core`` keeps only the true residual: the event loop plus bare
  event callbacks (flow-completion sentinels, condition events).

Time outside every wrapped callable (the benchmark's own driver code) lands
in the extra slot :data:`OUTSIDE`. With ``spans=True`` each boundary entry
is also kept as a span (layer, name, host and simulated start/end, parent,
root) and can be written as JSONL when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from types import GeneratorType

#: layer names are module paths under ``src/repro``
TARGETS = {
    "simkit.core": [
        ("repro.simkit.core", "Environment.run"),
        ("repro.simkit.core", "Environment.process"),
        ("repro.simkit.core", "Environment.process_batch"),
    ],
    "simkit.network": [
        ("repro.simkit.network", "FlowNetwork.transfer"),
        ("repro.simkit.network", "FlowNetwork.message"),
    ],
    "simkit.rpc": [
        ("repro.simkit.rpc", "call"),
        ("repro.simkit.rpc", "send_payload"),
    ],
    "simkit.disk": [
        ("repro.simkit.disk", "Disk.read"),
        ("repro.simkit.disk", "Disk.write"),
        ("repro.simkit.disk", "FileDevice.read"),
        ("repro.simkit.disk", "FileDevice.write"),
        ("repro.simkit.disk", "FileDevice.metadata_op"),
        ("repro.simkit.disk", "FileDevice.sync"),
    ],
    "blobseer.client": [
        ("repro.blobseer.client", "BlobClient.create"),
        ("repro.blobseer.client", "BlobClient.upload"),
        ("repro.blobseer.client", "BlobClient.read"),
        ("repro.blobseer.client", "BlobClient.fetch_chunk_range"),
        ("repro.blobseer.client", "BlobClient.fetch_refs"),
        ("repro.blobseer.client", "BlobClient.write_chunks"),
        ("repro.blobseer.client", "BlobClient.clone"),
    ],
    "blobseer.metadata": [
        ("repro.blobseer.metadata", "build_tree"),
        ("repro.blobseer.metadata", "write_chunks"),
        ("repro.blobseer.metadata", "clone_root"),
        ("repro.blobseer.metadata", "lookup"),
        ("repro.blobseer.metadata", "lookup_range"),
        ("repro.blobseer.metadata", "reachable_nodes"),
        ("repro.blobseer.provider", "MetadataProviderService.rpc_get_nodes"),
        ("repro.blobseer.provider", "MetadataProviderService.rpc_put_nodes"),
    ],
    "blobseer.provider": [
        ("repro.blobseer.provider", "DataProviderService.rpc_get_chunks"),
        ("repro.blobseer.provider", "DataProviderService.rpc_put_chunks"),
        ("repro.blobseer.provider", "DataProviderService.rpc_put_chunks_chain"),
    ],
    "blobseer.vmanager": [
        ("repro.blobseer.provider", "VersionManagerService.rpc_create_blob"),
        ("repro.blobseer.provider", "VersionManagerService.rpc_publish"),
        ("repro.blobseer.provider", "VersionManagerService.rpc_clone"),
        ("repro.blobseer.provider", "VersionManagerService.rpc_lookup"),
        ("repro.blobseer.provider", "VersionManagerService.rpc_delete_version"),
        ("repro.blobseer.provider", "VersionManagerService.rpc_delete_blob"),
        ("repro.blobseer.provider", "VersionManagerService.rpc_lineage_entry"),
        ("repro.blobseer.provider", "VersionManagerService.rpc_clone_lineage"),
        ("repro.blobseer.provider", "VersionManagerService.rpc_pin_version"),
        ("repro.blobseer.provider", "VersionManagerService.rpc_unpin_version"),
    ],
    "blobseer.pmanager": [
        ("repro.blobseer.pmanager", "ProviderManagerService.rpc_allocate"),
        ("repro.blobseer.pmanager", "PlacementPolicy.allocate"),
    ],
    "blobseer.gc": [
        ("repro.blobseer.gc", "collect_garbage"),
    ],
    "core.vfs": [
        ("repro.core.vfs", "MirrorVFS.open"),
        ("repro.core.vfs", "MirrorHandle.read"),
        ("repro.core.vfs", "MirrorHandle.write"),
        ("repro.core.vfs", "MirrorHandle.close"),
        ("repro.core.vfs", "MirrorHandle.ioctl_clone"),
        ("repro.core.vfs", "MirrorHandle.ioctl_commit"),
    ],
    "core.translator": [
        ("repro.core.translator", "RWTranslator.read"),
        ("repro.core.translator", "RWTranslator.write"),
        ("repro.core.translator", "RWTranslator.collect_dirty_chunks"),
    ],
    "vmsim.hypervisor": [
        ("repro.vmsim.hypervisor", "VMInstance.boot"),
        ("repro.vmsim.hypervisor", "VMInstance.run_ops"),
        ("repro.vmsim.hypervisor", "VMInstance.shutdown"),
    ],
    "p2p.exchange": [
        ("repro.p2p.exchange", "PeerAgent.fetch_refs"),
        ("repro.p2p.exchange", "PeerExchangeService.rpc_get_cached"),
    ],
    "p2p.directory": [
        ("repro.p2p.directory", "AnnounceDirectory.locate"),
        ("repro.p2p.directory", "AnnounceDirectory.on_cached"),
        ("repro.p2p.directory", "RendezvousDirectory.locate"),
        ("repro.p2p.directory", "RendezvousDirectory.on_cached"),
        ("repro.p2p.directory", "PeerDirectoryService.rpc_announce"),
        ("repro.p2p.directory", "PeerDirectoryService.rpc_locate"),
    ],
    "churn.scheduler": [
        ("repro.churn.scheduler", "Scheduler.submit"),
        ("repro.churn.scheduler", "Scheduler.release"),
        ("repro.churn.scheduler", "Scheduler.cancel"),
    ],
    "churn.engine": [
        ("repro.churn.engine", "ChurnEngine.run"),
        ("repro.churn.engine", "ChurnEngine.release"),
    ],
    "lineage.restore": [
        ("repro.lineage.restore", "restore_to_version"),
    ],
    "topo.fabric": [
        ("repro.topo.fabric", "Topology.scope"),
        ("repro.topo.fabric", "Topology.rack"),
        ("repro.topo.fabric", "Topology.same_rack"),
    ],
    "cloud.deployment": [
        ("repro.cloud.deployment", "deploy"),
        ("repro.cloud.snapshotting", "snapshot_all"),
    ],
}

LAYERS = tuple(TARGETS)
#: name of the slot that collects host time outside every wrapped callable
OUTSIDE = "bench.driver"

_CORE = LAYERS.index("simkit.core")
#: a span whose parent belongs to one of these layers (or has no parent)
#: starts a new root: it *is* the boot / snapshot / request being served
_ORCHESTRATION = frozenset(
    LAYERS.index(name) for name in ("simkit.core", "cloud.deployment", "churn.engine")
)


class Ledger:
    """Per-layer self time and per-callable call counts of one traced run."""

    def __init__(self, spans: bool = False, clock=time.perf_counter):
        self.clock = clock
        self.names = [qual for layer in LAYERS for _, qual in TARGETS[layer]]
        self.layer_of_name = [
            LAYERS.index(layer) for layer in LAYERS for _ in TARGETS[layer]
        ]
        #: host seconds per layer; the last slot is OUTSIDE (index -1)
        self.self_s = [0.0] * (len(LAYERS) + 1)
        self.ncalls = [0] * len(self.names)
        #: [time of the last layer switch, current layer, current span id]
        self.state = [clock(), -1, -1]
        self.peak_active_flows = 0
        #: the Environment whose clock stamps the spans (set by the caller)
        self.env = None
        #: span columns (None unless spans were requested)
        self.spans = (
            {k: [] for k in ("parent", "root", "layer", "name",
                             "host_t0", "host_t1", "sim_t0", "sim_t1")}
            if spans else None
        )
        self._span_base = 0
        self._patches = []

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Zero the accumulators (called when the timed region starts)."""
        self.self_s[:] = [0.0] * len(self.self_s)
        self.ncalls[:] = [0] * len(self.ncalls)
        self.peak_active_flows = 0
        # spans opened before the reset may still close later, so the
        # columns are kept and only the reporting window moves
        self._span_base = self.span_count()
        self.state[0] = self.clock()

    def flush(self) -> None:
        """Charge the time since the last switch to the current layer."""
        t = self.clock()
        st = self.state
        self.self_s[st[1]] += t - st[0]
        st[0] = t

    def layer_self_s(self) -> dict:
        out = dict(zip(LAYERS, self.self_s))
        out[OUTSIDE] = self.self_s[-1]
        return out

    def layer_calls(self) -> dict:
        out = dict.fromkeys(LAYERS, 0)
        for idx, n in enumerate(self.ncalls):
            out[LAYERS[self.layer_of_name[idx]]] += n
        return out

    def calls_of(self, qualname: str) -> int:
        return self.ncalls[self.names.index(qualname)]

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _open_span(self, layer: int, name: int, t: float) -> int:
        cols = self.spans
        parent = self.state[2]
        sid = len(cols["parent"])
        if parent < 0 or cols["layer"][parent] in _ORCHESTRATION:
            root = sid
        else:
            root = cols["root"][parent]
        env = self.env
        cols["parent"].append(parent)
        cols["root"].append(root)
        cols["layer"].append(layer)
        cols["name"].append(name)
        cols["host_t0"].append(t)
        cols["host_t1"].append(None)
        cols["sim_t0"].append(env.now if env is not None else None)
        cols["sim_t1"].append(None)
        return sid

    def _close_span(self, sid: int, t: float) -> None:
        cols = self.spans
        if cols["host_t1"][sid] is None:
            cols["host_t1"][sid] = t
            env = self.env
            cols["sim_t1"][sid] = env.now if env is not None else None

    def span_count(self) -> int:
        return len(self.spans["parent"]) if self.spans is not None else 0

    def span_dicts(self):
        """Spans since the last reset, as dicts (open spans end with null)."""
        cols = self.spans
        base = self._span_base
        for sid in range(base, self.span_count()):
            yield {
                "id": sid,
                "parent": cols["parent"][sid] if cols["parent"][sid] >= base else None,
                "root": cols["root"][sid],
                "layer": LAYERS[cols["layer"][sid]],
                "name": self.names[cols["name"][sid]],
                "host_t0": cols["host_t0"][sid],
                "host_t1": cols["host_t1"][sid],
                "sim_t0": cols["sim_t0"][sid],
                "sim_t1": cols["sim_t1"][sid],
            }

    def write_spans_jsonl(self, path) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.span_dicts():
                fh.write(json.dumps(span) + "\n")
        return self.span_count() - self._span_base

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def _wrap(self, fn, layer: int, name: int, hook=None):
        """Timing wrapper for one callable (plain or generator-returning)."""
        ledger = self
        clock = self.clock
        st = self.state
        self_s = self.self_s
        ncalls = self.ncalls
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ncalls[name] += 1
            t = clock()
            prev = st[1]
            self_s[prev] += t - st[0]
            st[0] = t
            st[1] = layer
            if hook is not None:
                args = hook(ledger, prev, args)
            sid = -1
            if spans is not None:
                prev_span = st[2]
                sid = st[2] = ledger._open_span(layer, name, t)
            is_gen = False
            try:
                result = fn(*args, **kwargs)
                if type(result) is GeneratorType:
                    is_gen = True
                    result = GenProxy(ledger, result, layer, sid, sid >= 0)
                return result
            finally:
                t = clock()
                self_s[layer] += t - st[0]
                st[0] = t
                st[1] = prev
                if spans is not None:
                    st[2] = prev_span
                    if not is_gen:
                        ledger._close_span(sid, t)

        return wrapper

    def install(self) -> "Ledger":
        """Patch every target (and every by-name import of a target)."""
        if self._patches:
            raise RuntimeError("ledger already installed")
        name_idx = 0
        for layer_idx, layer in enumerate(LAYERS):
            for module_name, qual in TARGETS[layer]:
                module = importlib.import_module(module_name)
                owner, attr = module, qual
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(module, cls_name)
                original = vars(owner)[attr]
                wrapped = self._wrap(
                    original, layer_idx, name_idx, hook=_HOOKS.get(qual)
                )
                self._patch(owner, attr, original, wrapped)
                if owner is module:
                    # `from .metadata import write_chunks` style aliases
                    for other in list(sys.modules.values()):
                        if (
                            other is not module
                            and getattr(other, "__name__", "").startswith("repro")
                            and vars(other).get(attr) is original
                        ):
                            self._patch(other, attr, original, wrapped)
                name_idx += 1
        self.state[0] = self.clock()
        return self

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class GenProxy:
    """Delegating generator stand-in that charges each resumption to a layer.

    Behaves like the wrapped generator under ``next``/``send``/``throw``/
    ``close`` and ``yield from`` (values, return value and exceptions pass
    through unchanged), so simulated timelines are unaffected.
    """

    __slots__ = ("_ledger", "_gen", "_send", "_layer", "_sid", "_own_span")

    def __init__(self, ledger: Ledger, gen, layer: int, sid: int, own_span: bool):
        self._ledger = ledger
        self._gen = gen
        self._send = gen.send
        self._layer = layer
        self._sid = sid
        self._own_span = own_span

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._send, None)

    def send(self, value):
        return self._resume(self._send, value)

    def throw(self, *exc):
        return self._resume(self._gen.throw, *exc)

    def close(self):
        return self._resume(self._close)

    def _close(self):
        try:
            return self._gen.close()
        finally:
            # a closed generator never raises StopIteration into _resume
            if self._own_span:
                self._ledger._close_span(self._sid, self._ledger.clock())

    def _resume(self, step, *args):
        ledger = self._ledger
        clock = ledger.clock
        st = ledger.state
        self_s = ledger.self_s
        layer = self._layer
        t = clock()
        prev = st[1]
        self_s[prev] += t - st[0]
        st[0] = t
        st[1] = layer
        prev_span = st[2]
        st[2] = self._sid
        try:
            return step(*args)
        except BaseException:
            if self._own_span:
                ledger._close_span(self._sid, clock())
            raise
        finally:
            t = clock()
            self_s[layer] += t - st[0]
            st[0] = t
            st[1] = prev
            st[2] = prev_span


# ---------------------------------------------------------------------- #
# per-target hooks: run inside the wrapper, before the original callable;
# receive (ledger, layer current at the call site, args) and return args
# ---------------------------------------------------------------------- #
def _tag_process(ledger: Ledger, caller_layer: int, args):
    """``Environment.process(gen)``: charge the new process to the spawner."""
    env, gen = args[0], args[1]
    if caller_layer != _CORE and type(gen) is not GenProxy:
        gen = GenProxy(ledger, gen, caller_layer, ledger.state[2], False)
    return (env, gen) + args[2:]


def _tag_process_batch(ledger: Ledger, caller_layer: int, args):
    env, gens = args[0], args[1]
    if caller_layer != _CORE:
        parent_span = ledger.state[2]
        gens = [
            g if type(g) is GenProxy
            else GenProxy(ledger, g, caller_layer, parent_span, False)
            for g in gens
        ]
    return (env, gens) + args[2:]


def _sample_flows(ledger: Ledger, caller_layer: int, args):
    """``FlowNetwork.transfer``: sample the flow table on entry."""
    active = args[0].active_flow_count
    if active > ledger.peak_active_flows:
        ledger.peak_active_flows = active
    return args


_HOOKS = {
    "Environment.process": _tag_process,
    "Environment.process_batch": _tag_process_batch,
    "FlowNetwork.transfer": _sample_flows,
}
