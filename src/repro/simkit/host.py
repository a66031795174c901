"""Hosts and the fabric bundle.

A :class:`Host` is one physical machine of the simulated cluster: a NIC on
the shared fabric, a local disk, a CPU core pool, and a local file system
namespace (sparse files holding payloads). A :class:`Fabric` bundles the
environment, the network, metrics and RNG streams — it is the single object
threaded through every service constructor.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.errors import SimulationError
from ..common.payload import SparseFile
from ..common.rng import RngStreams
from ..common.units import MB, MILLISECONDS
from ..obs.span import NULL_TRACER
from .core import Environment
from .disk import Disk
from .network import FlowNetwork, Nic
from .trace import Metrics


class Fabric:
    """Environment + network + metrics + RNG: the simulation context."""

    def __init__(
        self,
        seed: int = 0,
        nic_bandwidth: float = 117.5 * MB,
        latency: float = 0.1 * MILLISECONDS,
        topology=None,
    ):
        self.env = Environment()
        self.metrics = Metrics()
        #: observability: inert by default; :func:`repro.obs.install_tracer`
        #: swaps in a live tracer (never affects the timeline either way)
        self.tracer = NULL_TRACER
        self.network = FlowNetwork(
            self.env,
            metrics=self.metrics,
            latency=latency,
            topology=topology,
        )
        self.rng = RngStreams(seed)
        self.nic_bandwidth = nic_bandwidth
        self.hosts: Dict[str, Host] = {}
        #: per-pair TCP/service handshake cost charged on first contact
        #: (0 keeps unit tests exact; the calibrated clouds set it)
        self.connection_setup: float = 0.0
        self._rpc_conn_pairs: set = set()

    def add_host(
        self,
        name: str,
        disk_read_bw: float = 55 * MB,
        disk_write_bw: float = 55 * MB,
        disk_seek_time: float = 8 * MILLISECONDS,
        nic_bandwidth: Optional[float] = None,
    ) -> "Host":
        if name in self.hosts:
            raise SimulationError(f"duplicate host {name!r}")
        bw = nic_bandwidth if nic_bandwidth is not None else self.nic_bandwidth
        nic = self.network.add_nic(name, bw)
        disk = Disk(
            self.env,
            f"{name}:disk",
            read_bandwidth=disk_read_bw,
            write_bandwidth=disk_write_bw,
            seek_time=disk_seek_time,
            metrics=self.metrics,
        )
        host = Host(self, name, nic, disk)
        self.hosts[name] = host
        return host

    def run(self, until=None):
        return self.env.run(until)


class Host:
    """One machine: NIC, disk, local sparse-file namespace."""

    def __init__(self, fabric: Fabric, name: str, nic: Nic, disk: Disk):
        self.fabric = fabric
        self.env = fabric.env
        self.name = name
        self.nic = nic
        self.disk = disk
        #: local file system: path -> SparseFile (content only; timing via disk)
        self.files: Dict[str, SparseFile] = {}
        #: RPC services bound on this host (service name -> object)
        self.services: Dict[str, object] = {}
        #: memoized (service, method) -> bound handler, filled by rpc.call
        self._rpc_cache: Dict[tuple, object] = {}
        #: unreachable flag (fault injection): RPCs to the host fail while it
        #: is set; :meth:`fail` / :meth:`recover` also kill and restart work
        self.down = False
        #: processes started via :meth:`spawn` and still running — the set a
        #: crash must kill (insertion-ordered for deterministic interrupts)
        self._live_procs: Dict[object, None] = {}

    # ------------------------------------------------------------------ #
    # local file system (content plane; callers add disk timing explicitly)
    # ------------------------------------------------------------------ #
    def create_file(self, path: str, size: int) -> SparseFile:
        if path in self.files:
            raise SimulationError(f"{self.name}: file {path!r} already exists")
        f = SparseFile(size)
        self.files[path] = f
        return f

    def open_file(self, path: str) -> SparseFile:
        try:
            return self.files[path]
        except KeyError:
            raise SimulationError(f"{self.name}: no such file {path!r}") from None

    def unlink(self, path: str) -> None:
        self.files.pop(path, None)

    def exists(self, path: str) -> bool:
        return path in self.files

    # ------------------------------------------------------------------ #
    # processes
    # ------------------------------------------------------------------ #
    def spawn(self, gen, name: str = ""):
        proc = self.env.process(gen, name=f"{self.name}:{name}")
        # Track until completion so a crash can interrupt it. The bookkeeping
        # adds no scheduled events, so timelines without faults are unchanged.
        live = self._live_procs
        live[proc] = None
        proc.callbacks.append(lambda _ev: live.pop(proc, None))
        return proc

    # ------------------------------------------------------------------ #
    # fault injection
    # ------------------------------------------------------------------ #
    def fail(self, cause: object = "host-crash") -> None:
        """Crash the host: RPCs to it fail, its flows abort, its processes die.

        Services bound on the host get an ``on_host_crash()`` hook (if they
        define one) to model volatile-state loss — e.g. a data provider's RAM
        write buffer and unflushed chunks.
        """
        if self.down:
            return
        self.down = True
        self.fabric.network.fail_nic(self.nic, cause=f"{self.name}: {cause}")
        for proc in list(self._live_procs):
            proc.interrupt(cause)
        self._live_procs.clear()
        for svc in self.services.values():
            hook = getattr(svc, "on_host_crash", None)
            if hook is not None:
                hook()
        self.fabric.metrics.count("host-crash")

    def recover(self) -> None:
        """Revive a crashed host (services get ``on_host_restart()``)."""
        if not self.down:
            return
        self.down = False
        for svc in self.services.values():
            hook = getattr(svc, "on_host_restart", None)
            if hook is not None:
                hook()
        self.fabric.metrics.count("host-restart")

    def __repr__(self) -> str:
        return f"Host({self.name})"
