"""Boot-phase access-trace generation (§2.3).

A boot is a sequence of CPU bursts interleaved with random small reads and
writes against the virtual disk. Every instance of the same image follows
the same hot-region order (same OS), but per-instance timing jitter plus the
randomized hypervisor initialization overhead produce the natural access
skew the paper measures (~100 ms between two instances hitting the boot
sector, §3.1.3) — which is exactly what de-synchronizes chunk accesses and
lets striping spread the load.

Reads are *correlated*: each hot region is consumed as a few consecutive
sub-reads ("a read on one region followed by a read in the neighborhood",
§3.3) — the access pattern the full-chunk prefetch strategy exploits and
per-request baselines pay for.

Traces are :class:`Trace` columns, not lists of :class:`BootOp` objects: a
512-VM burst holds every VM's trace from launch until that VM has booted.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, List

import numpy as np

from ..calibration import BootModel
from ..common.errors import SimulationError
from ..common.units import KiB
from .image import VmImage

#: op kind codes of a :class:`Trace`'s kind column
CPU, READ, WRITE = 0, 1, 2
#: op kind names, indexed by code
KINDS = ("cpu", "read", "write")
_CODES = {name: code for code, name in enumerate(KINDS)}


@dataclass(slots=True)
class BootOp:
    """One step of a trace, as iterating a :class:`Trace` yields it.

    Treated as immutable. Not ``frozen``: that routes every field through
    ``object.__setattr__`` on construction.
    """

    kind: str  # "cpu" | "read" | "write"
    offset: int = 0
    nbytes: int = 0
    duration: float = 0.0


class Trace:
    """An op trace as four columns: kind, offset, size and duration.

    One byte, two 64-bit integers and one double per op — 25 B, where a
    :class:`BootOp` plus its boxed fields cost about 100.
    :meth:`~repro.vmsim.hypervisor.VMInstance.run_ops` replays the columns
    without an object per op; iterating (any number of times) yields
    :class:`BootOp`\\ s built on the fly. CPU ops carry offset and size 0,
    I/O ops duration 0.0.
    """

    __slots__ = ("kinds", "offsets", "sizes", "durations")

    def __init__(self, kinds=None, offsets=None, sizes=None, durations=None):
        self.kinds = bytearray() if kinds is None else kinds
        self.offsets = array("q") if offsets is None else offsets
        self.sizes = array("q") if sizes is None else sizes
        self.durations = array("d") if durations is None else durations

    @classmethod
    def from_ops(cls, ops: Iterable[BootOp]) -> "Trace":
        """Pack ``BootOp``\\ s; an unknown kind raises :class:`SimulationError`."""
        trace = cls()
        for op in ops:
            code = _CODES.get(op.kind)
            if code is None:
                raise SimulationError(f"unknown boot op {op.kind!r}")
            trace.append(code, op.offset, op.nbytes, op.duration)
        return trace

    def append(self, kind: int, offset: int = 0, nbytes: int = 0, duration: float = 0.0) -> None:
        self.kinds.append(kind)
        self.offsets.append(offset)
        self.sizes.append(nbytes)
        self.durations.append(duration)

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[BootOp]:
        for kind, offset, nbytes, duration in zip(
            self.kinds, self.offsets, self.sizes, self.durations
        ):
            yield BootOp(KINDS[kind], offset, nbytes, duration)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.kinds == other.kinds
            and self.offsets == other.offsets
            and self.sizes == other.sizes
            and self.durations == other.durations
        )


def cut_points(size: int, n_sub: int) -> List[int]:
    """``np.linspace(0, size, n_sub + 1).astype(np.int64)`` as Python ints.

    Spelled out — interior points ``k * step`` truncated, the end point
    exact — because an array per hot region was a third of a 512-VM
    deployment's trace generation; equal to numpy's bit for bit (tested).
    """
    step = size / n_sub
    return [int(k * step) for k in range(n_sub)] + [size]


def boot_trace(image: VmImage, model: BootModel, rng: np.random.Generator) -> Trace:
    """Generate one instance's boot trace.

    Deterministic given ``rng`` state; distinct instances pass distinct
    sub-streams and get jittered-but-similar traces.
    """
    regions = list(image.hot_regions)
    # Mild per-instance reordering of neighbours (service start order jitter),
    # never moving the boot sector.
    # (one array draw consumes the stream exactly like the scalar draws)
    swaps = rng.random(max(0, len(regions) - 2)).tolist()
    for i, draw in enumerate(swaps, 1):
        if draw < 0.25:
            regions[i], regions[i + 1] = regions[i + 1], regions[i]

    # Split regions into correlated sub-reads.
    read_offsets: List[int] = []
    read_sizes: List[int] = []
    for region in regions:
        n_sub = 1 if region.size <= 64 * KiB else int(rng.integers(2, 5))
        cuts = cut_points(region.size, n_sub)
        for a, b in zip(cuts, cuts[1:]):
            if b > a:
                read_offsets.append(region.offset + a)
                read_sizes.append(b - a)

    # Boot-time writes: small scattered config/log writes in the write area.
    write_offsets: List[int] = []
    per_write = int(max(512, model.write_bytes // max(1, model.write_ops)))
    cursor = image.write_base
    for k in range(model.write_ops):
        if k % 6 == 5:
            cursor += int(rng.integers(1, 4)) * 128 * KiB  # jump: new file/dir
        write_offsets.append(int(cursor))
        cursor += per_write

    # Interleave: reads keep their order (boot sequence); writes are spliced
    # into the second half of the boot (daemons writing state at start-up).
    first = len(read_offsets) // 2
    io_kinds = bytearray([READ]) * first
    io_offsets = read_offsets[:first]
    io_sizes = read_sizes[:first]
    n_writes = len(write_offsets)
    stride = max(1, (len(read_offsets) - first) // max(1, n_writes))
    w = 0
    for i in range(first, len(read_offsets)):
        io_kinds.append(READ)
        io_offsets.append(read_offsets[i])
        io_sizes.append(read_sizes[i])
        if w < n_writes and (i - first) % stride == stride - 1:
            io_kinds.append(WRITE)
            io_offsets.append(write_offsets[w])
            io_sizes.append(per_write)
            w += 1
    io_kinds.extend(bytes([WRITE]) * (n_writes - w))
    io_offsets.extend(write_offsets[w:])
    io_sizes.extend([per_write] * (n_writes - w))

    # CPU bursts between I/Os: exponential durations normalized to the
    # model's total guest CPU time. The trace is cpu, io, cpu, ..., io, cpu.
    n_io = len(io_kinds)
    bursts = rng.exponential(1.0, size=n_io + 1)
    bursts = bursts / bursts.sum() * model.cpu_seconds
    n_ops = 2 * n_io + 1
    kinds = bytearray(n_ops)  # zero-filled: CPU
    kinds[1::2] = io_kinds
    offsets = array("q", bytes(8 * n_ops))
    offsets[1::2] = array("q", io_offsets)
    sizes = array("q", bytes(8 * n_ops))
    sizes[1::2] = array("q", io_sizes)
    durations = array("d", bytes(8 * n_ops))
    durations[0::2] = array("d", bursts.astype(np.float64).tobytes())
    return Trace(kinds, offsets, sizes, durations)


def trace_stats(ops: Iterable[BootOp]) -> dict:
    """Aggregate measures of a trace (used by tests and calibration)."""
    return {
        "reads": sum(1 for o in ops if o.kind == "read"),
        "writes": sum(1 for o in ops if o.kind == "write"),
        "read_bytes": sum(o.nbytes for o in ops if o.kind == "read"),
        "write_bytes": sum(o.nbytes for o in ops if o.kind == "write"),
        "cpu_seconds": sum(o.duration for o in ops if o.kind == "cpu"),
    }
