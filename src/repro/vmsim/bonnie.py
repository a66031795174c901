"""A Bonnie++-like file-system micro-benchmark (§5.4, Figs. 6 and 7).

Reproduces the phases the paper reports:

* **BlockW** — sequential writes of a working set in 8 KiB blocks;
* **BlockR** — sequential read-back of the written data;
* **BlockO** — block overwrite (read each block, write it back);
* **RndSeek** — random seeks each followed by a small cached read;
* **CreatF / DelF** — metadata operations (file create / delete).

Since data is written first and read back, a lazy-mirroring backend never
goes remote (§5.4: "no remote reads are involved ... experimentation with a
single VM instance is enough").

Adjacent blocks are issued in batches for simulation speed; the per-block
operation overhead is charged explicitly so batching is timing-neutral
(both the per-op cost and the bandwidth cost are linear in block count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..common.payload import Payload
from ..common.units import KiB, MiB

#: bytes of adjacent blocks issued as one backend call in the sequential phases
BATCH_BYTES = 4 * MiB


@dataclass
class BonnieResults:
    """Figures 6 and 7 in one record (KB/s and ops/s)."""

    block_write_kbps: float
    block_read_kbps: float
    block_overwrite_kbps: float
    rnd_seek_ops: float
    create_ops: float
    delete_ops: float


class BonnieBenchmark:
    """Drive a backend through the Bonnie++ phases."""

    def __init__(
        self,
        backend,
        data_op_overhead: float,
        meta_op_overhead: float,
        working_set: int = 800 * MiB,
        block_size: int = 8 * KiB,
        base_offset: int = 0,
        n_seeks: int = 4000,
        n_files: int = 16384,
    ):
        self.backend = backend
        self.per_op = data_op_overhead
        self.meta_op = meta_op_overhead
        self.working_set = working_set
        self.block = block_size
        self.base = base_offset
        self.n_seeks = n_seeks
        self.n_files = n_files
        self.env = backend.host.env

    # ------------------------------------------------------------------ #
    def _sequential(self, do_read: bool, do_write: bool) -> Generator:
        """One sequential pass over the working set, batched."""
        cursor = self.base
        end = self.base + self.working_set
        while cursor < end:
            size = min(BATCH_BYTES, end - cursor)
            blocks = -(-size // self.block)
            # per-block syscall cost beyond the single batched call below
            extra_ops = blocks - 1 + (blocks if do_read and do_write else 0)
            if extra_ops > 0:
                yield self.env.timeout(extra_ops * self.per_op)
            if do_read:
                yield from self.backend.read(cursor, size)
            if do_write:
                yield from self.backend.write(cursor, Payload.opaque("bonnie", size))
            cursor += size

    def _timed(self, gen) -> Generator:
        t0 = self.env.now
        yield from gen
        return self.env.now - t0

    # ------------------------------------------------------------------ #
    def run(self) -> Generator:
        """Execute all phases; returns :class:`BonnieResults`."""
        ws_kb = self.working_set / 1024

        t_write = yield from self._timed(self._sequential(False, True))
        t_read = yield from self._timed(self._sequential(True, False))
        t_over = yield from self._timed(self._sequential(True, True))

        # Random seeks: seek syscall (metadata class) + small cached read.
        t0 = self.env.now
        reads = min(self.n_seeks, 64)  # sampled reads; rest charged as ops
        yield self.env.timeout((2 * self.n_seeks - reads) * self.meta_op)
        for i in range(reads):
            off = self.base + (i * 7919 * self.block) % self.working_set
            yield from self.backend.read(off, self.block)
        t_seek = self.env.now - t0

        # File create/delete: metadata-only operations.
        t0 = self.env.now
        yield self.env.timeout(self.n_files * 2 * self.meta_op)
        t_create = self.env.now - t0
        t0 = self.env.now
        yield self.env.timeout(self.n_files * 3 * self.meta_op)
        t_delete = self.env.now - t0

        return BonnieResults(
            block_write_kbps=ws_kb / t_write,
            block_read_kbps=ws_kb / t_read,
            block_overwrite_kbps=ws_kb / t_over,
            rnd_seek_ops=self.n_seeks / t_seek,
            create_ops=self.n_files / t_create,
            delete_ops=self.n_files / t_delete,
        )
