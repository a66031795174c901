"""Application-phase workloads (§2.3).

After boot, the paper distinguishes (1) negligible disk access — CPU-bound
jobs or jobs using dedicated storage — and (2) read-your-writes access, e.g.
web servers maintaining logs and object caches inside the image. The second
kind is provided as trace generators returning a
:class:`~repro.vmsim.boottrace.Trace` for
:meth:`repro.vmsim.hypervisor.VMInstance.run_ops`.
"""

from __future__ import annotations

import numpy as np

from ..common.units import KiB
from .boottrace import CPU, READ, WRITE, Trace


def read_your_writes_workload(
    base_offset: int,
    total_bytes: int,
    rng: np.random.Generator,
    reread_fraction: float = 0.5,
) -> Trace:
    """Log/object-cache pattern: append writes, re-read some of what was written.

    Writes go in 8 KiB blocks, each after 2 ms of CPU. All reads target
    previously written offsets, so a lazy-mirroring backend serves them
    locally (the property §5.4 measures).
    """
    write_block, cpu_between = 8 * KiB, 0.002
    trace = Trace()
    append = trace.append
    n_written = 0
    cursor = base_offset
    remaining = total_bytes
    while remaining > 0:
        blk = min(write_block, remaining)
        append(CPU, 0, 0, cpu_between)
        append(WRITE, cursor, blk)
        n_written += 1
        cursor += blk
        remaining -= blk
        if rng.random() < reread_fraction:
            # block k starts k blocks in; only the last one may be short
            start = int(rng.integers(0, n_written)) * write_block
            append(READ, base_offset + start, min(write_block, total_bytes - start))
    return trace


def log_append_workload(base_offset: int, n_appends: int, append_bytes: int) -> Trace:
    """Sequential append-only log (webserver access log), 10 ms of CPU per append."""
    trace = Trace()
    cursor = base_offset
    for _ in range(n_appends):
        trace.append(CPU, 0, 0, 0.01)
        trace.append(WRITE, cursor, append_bytes)
        cursor += append_bytes
    return trace
