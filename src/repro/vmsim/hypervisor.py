"""The hypervisor/VM-instance model.

A :class:`VMInstance` drives an image backend through a trace of CPU bursts
and disk I/O. Booting starts with the randomized hypervisor initialization
overhead (KVM start-up, device model setup) — the main source of the access
skew measured in §3.1.3 — then replays the boot trace. The instance's
``boot_time`` corresponds to the paper's measurement: hypervisor launch to
``/etc/rc.local`` executed.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional

import numpy as np

from ..calibration import BootModel
from ..common.errors import SimulationError
from ..common.payload import Payload
from ..simkit.core import Timeout
from ..simkit.host import Host
from .boottrace import CPU, READ, WRITE, BootOp, Trace


class _WritePayloads(dict):
    """Guest-write content by size, built on first use.

    Every write of ``n`` bytes by one VM is the same content by the payload
    algebra's own equality — ``(tag, offset 0, n)`` — and payloads are
    immutable, so all of them can be the same object.
    """

    def __init__(self, vm_name: str):
        self.tag = f"vmwrite-{vm_name}"

    def __missing__(self, nbytes: int) -> Payload:
        payload = self[nbytes] = Payload.opaque(self.tag, nbytes)
        return payload


class VMInstance:
    """One virtual machine bound to a host and an image backend."""

    def __init__(
        self,
        name: str,
        host: Host,
        backend,
        boot_model: Optional[BootModel] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.name = name
        self.host = host
        self.backend = backend
        self.boot_model = boot_model if boot_model is not None else BootModel()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.boot_time: Optional[float] = None
        self.booted_at: Optional[float] = None

    # ------------------------------------------------------------------ #
    def run_ops(self, ops: Iterable[BootOp]) -> Generator:
        """Replay a trace against the backend.

        A :class:`~repro.vmsim.boottrace.Trace` replays from its columns, with
        no object per op; any other iterable of ``BootOp``\\ s is packed into
        one first.
        """
        if not isinstance(ops, Trace):
            ops = Trace.from_ops(ops)
        if self.host.fabric.tracer.enabled:
            yield from self._run_ops_traced(ops)
            return
        env = self.host.env
        backend = self.backend
        payloads = _WritePayloads(self.name)
        for kind, offset, nbytes, duration in zip(
            ops.kinds, ops.offsets, ops.sizes, ops.durations
        ):
            if kind == CPU:
                if duration > 0:
                    yield Timeout(env, duration)
            elif kind == READ:
                yield from backend.read(offset, nbytes)
            elif kind == WRITE:
                yield from backend.write(offset, payloads[nbytes])
            else:
                raise SimulationError(f"unknown boot op kind {kind}")

    def _run_ops_traced(self, ops: Trace) -> Generator:
        """run_ops with one span per trace op (guest CPU bursts vs. disk I/O)."""
        env = self.host.env
        backend = self.backend
        tracer = self.host.fabric.tracer
        payloads = _WritePayloads(self.name)
        for kind, offset, nbytes, duration in zip(
            ops.kinds, ops.offsets, ops.sizes, ops.durations
        ):
            if kind == CPU:
                if duration > 0:
                    with tracer.start("guest-cpu", "cpu", duration=duration):
                        yield Timeout(env, duration)
            elif kind == READ:
                with tracer.start("op:read", "vfs", offset=offset, nbytes=nbytes):
                    yield from backend.read(offset, nbytes)
            elif kind == WRITE:
                with tracer.start("op:write", "vfs", offset=offset, nbytes=nbytes):
                    yield from backend.write(offset, payloads[nbytes])
            else:
                raise SimulationError(f"unknown boot op kind {kind}")

    def boot(self, trace: Iterable[BootOp]) -> Generator:
        """Hypervisor init + backend open + boot trace. Records boot_time."""
        env = self.host.env
        t_launch = env.now
        init = self.rng.uniform(
            self.boot_model.hypervisor_init_min, self.boot_model.hypervisor_init_max
        )
        tracer = self.host.fabric.tracer
        with tracer.start(f"boot:{self.name}", "vm", host=self.host.name):
            with tracer.start("hypervisor-init", "cpu", seconds=float(init)):
                yield env.timeout(float(init))
            with tracer.start("backend-open", "vfs"):
                yield from self.backend.open()
            yield from self.run_ops(trace)
        self.booted_at = env.now
        self.boot_time = env.now - t_launch
        metrics = self.host.fabric.metrics
        metrics.sample("boot-time", self.boot_time)
        metrics.observe("boot-time", self.boot_time)
        return self.boot_time

    def shutdown(self) -> Generator:
        """Clean shutdown: negligible disk access (§2.3), close the backend."""
        yield from self.backend.close()
