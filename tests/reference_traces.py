"""List-of-``BootOp`` trace generators (test-only reference).

:func:`repro.vmsim.boottrace.boot_trace` and the generators of
:mod:`repro.vmsim.workloads` return a :class:`~repro.vmsim.boottrace.Trace`:
four columns, no object per op. Their correctness claim is *equality* with
the generators the repository shipped before, which live here unchanged —
each builds a list with one :class:`BootOp` per op and makes the same RNG
draws in the same order. ``tests/vmsim/test_trace_columns.py`` compares
every op and the next draw of the stream.
"""

from typing import List

import numpy as np

from repro.calibration import BootModel
from repro.common.units import KiB
from repro.vmsim.boottrace import BootOp, cut_points
from repro.vmsim.image import VmImage


def boot_trace(image: VmImage, model: BootModel, rng: np.random.Generator) -> List[BootOp]:
    ops: List[BootOp] = []
    regions = list(image.hot_regions)
    swaps = rng.random(max(0, len(regions) - 2)).tolist()
    for i, draw in enumerate(swaps, 1):
        if draw < 0.25:
            regions[i], regions[i + 1] = regions[i + 1], regions[i]

    reads: List[BootOp] = []
    for region in regions:
        n_sub = 1 if region.size <= 64 * KiB else int(rng.integers(2, 5))
        cuts = cut_points(region.size, n_sub)
        for a, b in zip(cuts, cuts[1:]):
            if b > a:
                reads.append(BootOp("read", region.offset + a, b - a))

    writes: List[BootOp] = []
    per_write = max(512, model.write_bytes // max(1, model.write_ops))
    cursor = image.write_base
    for k in range(model.write_ops):
        if k % 6 == 5:
            cursor += int(rng.integers(1, 4)) * 128 * KiB
        writes.append(BootOp("write", int(cursor), int(per_write)))
        cursor += per_write

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


def cpu_workload(seconds: float, slices: int = 10) -> List[BootOp]:
    return [BootOp("cpu", duration=seconds / slices) for _ in range(slices)]


def read_your_writes_workload(
    base_offset: int,
    total_bytes: int,
    rng: np.random.Generator,
    write_block: int = 8 * KiB,
    reread_fraction: float = 0.5,
    cpu_between: float = 0.002,
) -> List[BootOp]:
    ops: List[BootOp] = []
    written = []
    cursor = base_offset
    remaining = total_bytes
    while remaining > 0:
        blk = min(write_block, remaining)
        ops.append(BootOp("cpu", duration=cpu_between))
        ops.append(BootOp("write", cursor, blk))
        written.append((cursor, blk))
        cursor += blk
        remaining -= blk
        if rng.random() < reread_fraction and written:
            off, ln = written[int(rng.integers(0, len(written)))]
            ops.append(BootOp("read", off, ln))
    return ops


def log_append_workload(
    base_offset: int, n_appends: int, append_bytes: int, cpu_between: float = 0.01
) -> List[BootOp]:
    ops: List[BootOp] = []
    cursor = base_offset
    for _ in range(n_appends):
        ops.append(BootOp("cpu", duration=cpu_between))
        ops.append(BootOp("write", cursor, append_bytes))
        cursor += append_bytes
    return ops
