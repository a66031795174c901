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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..calibration import BootModel
from ..common.units import KiB
from .image import VmImage


@dataclass(slots=True)
class BootOp:
    """One step of a boot trace.

    Treated as immutable. Not ``frozen``: that routes every field through
    ``object.__setattr__`` on construction, which was most of the cost of
    generating a trace; not a named tuple: 16 bytes more per op, and a
    512-VM burst holds a quarter of a million of them.
    """

    kind: str  # "cpu" | "read" | "write"
    offset: int = 0
    nbytes: int = 0
    duration: float = 0.0


def cut_points(size: int, n_sub: int) -> List[int]:
    """``np.linspace(0, size, n_sub + 1).astype(np.int64)`` as Python ints.

    Spelled out — interior points ``k * step`` truncated, the end point
    exact — because an array per hot region was a third of a 512-VM
    deployment's trace generation; equal to numpy's bit for bit (tested).
    """
    step = size / n_sub
    return [int(k * step) for k in range(n_sub)] + [size]


def boot_trace(image: VmImage, model: BootModel, rng: np.random.Generator) -> List[BootOp]:
    """Generate one instance's boot trace.

    Deterministic given ``rng`` state; distinct instances pass distinct
    sub-streams and get jittered-but-similar traces.
    """
    ops: List[BootOp] = []
    regions = list(image.hot_regions)
    # Mild per-instance reordering of neighbours (service start order jitter),
    # never moving the boot sector.
    # (one array draw consumes the stream exactly like the scalar draws)
    swaps = rng.random(max(0, len(regions) - 2)).tolist()
    for i, draw in enumerate(swaps, 1):
        if draw < 0.25:
            regions[i], regions[i + 1] = regions[i + 1], regions[i]

    # Split regions into correlated sub-reads.
    reads: List[BootOp] = []
    for region in regions:
        n_sub = 1 if region.size <= 64 * KiB else int(rng.integers(2, 5))
        cuts = cut_points(region.size, n_sub)
        for a, b in zip(cuts, cuts[1:]):
            if b > a:
                reads.append(BootOp("read", region.offset + a, b - a))

    # Boot-time writes: small scattered config/log writes in the write area.
    writes: List[BootOp] = []
    per_write = max(512, model.write_bytes // max(1, model.write_ops))
    cursor = image.write_base
    for k in range(model.write_ops):
        if k % 6 == 5:
            cursor += int(rng.integers(1, 4)) * 128 * KiB  # jump: new file/dir
        writes.append(BootOp("write", int(cursor), int(per_write)))
        cursor += per_write

    # Interleave: reads keep their order (boot sequence); writes are spliced
    # into the second half of the boot (daemons writing state at start-up).
    ops.extend(reads[: len(reads) // 2])
    half = reads[len(reads) // 2 :]
    stride = max(1, len(half) // max(1, len(writes)))
    w = 0
    for i, op in enumerate(half):
        ops.append(op)
        if w < len(writes) and i % stride == stride - 1:
            ops.append(writes[w])
            w += 1
    ops.extend(writes[w:])

    # CPU bursts between I/Os: exponential durations normalized to the
    # model's total guest CPU time.
    n_io = len(ops)
    bursts = rng.exponential(1.0, size=n_io + 1)
    bursts = bursts / bursts.sum() * model.cpu_seconds
    out: List[BootOp] = []
    bursts = bursts.tolist()
    for burst, op in zip(bursts, ops):
        out.append(BootOp("cpu", duration=burst))
        out.append(op)
    out.append(BootOp("cpu", duration=bursts[-1]))
    return out


def trace_stats(ops: List[BootOp]) -> dict:
    """Aggregate measures of a trace (used by tests and calibration)."""
    return {
        "reads": sum(1 for o in ops if o.kind == "read"),
        "writes": sum(1 for o in ops if o.kind == "write"),
        "read_bytes": sum(o.nbytes for o in ops if o.kind == "read"),
        "write_bytes": sum(o.nbytes for o in ops if o.kind == "write"),
        "cpu_seconds": sum(o.duration for o in ops if o.kind == "cpu"),
    }
