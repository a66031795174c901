"""VM image content model and boot hot-set layout.

A :class:`VmImage` bundles the image payload with the *hot set*: the regions
a boot of the installed OS actually touches (§2.3 — a VM never reads most of
its image). The hot set is derived deterministically from the image tag, so
every VM instance booting the same image touches the same bytes (they run
the same OS), while per-instance trace jitter lives in the boot-trace
generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..common.errors import SimulationError
from ..common.payload import Payload
from ..common.rng import RngStreams
from ..common.units import KiB, MiB


@dataclass(frozen=True)
class HotRegion:
    """One contiguous region the boot reads (a file or file group)."""

    offset: int
    size: int


@dataclass
class VmImage:
    """An image payload plus its boot-access layout."""

    tag: str
    payload: Payload
    #: regions read during boot, in access order (boot sector first)
    hot_regions: List[HotRegion]
    #: area receiving boot-time writes (logs, /etc contextualization)
    write_base: int

    @property
    def size(self) -> int:
        return self.payload.size


def make_image(
    size: int,
    touched_bytes: int,
    n_regions: int = 64,
    tag: str = "debian-sid",
    payload: Payload | None = None,
    seed: int = 0,
) -> VmImage:
    """Build an image whose boot touches ``touched_bytes`` in ``n_regions``.

    Region sizes follow a lognormal distribution (a few big binaries, many
    small config files), placed without overlap across the image; the boot
    sector (first 4 KiB) is always region zero. The layout is a pure
    function of ``(tag, seed)``.
    """
    if touched_bytes >= size:
        raise SimulationError("hot set must be smaller than the image")
    if payload is None:
        payload = Payload.opaque(tag, size)
    if payload.size != size:
        raise SimulationError("payload size mismatch")
    rng = RngStreams(seed).get("image-layout", tag)

    boot_sector = HotRegion(0, 4 * KiB)
    remaining = touched_bytes - boot_sector.size
    n_rest = n_regions - 1
    raw = rng.lognormal(mean=0.0, sigma=1.0, size=n_rest)
    sizes = np.maximum((raw / raw.sum() * remaining).astype(np.int64), 4 * KiB)
    # Place regions at increasing offsets with random gaps: slack spread
    # uniformly over the image keeps regions non-overlapping and ordered.
    total = int(sizes.sum())
    slack = size - total - boot_sector.size - 64 * KiB
    if slack < 0:
        raise SimulationError("hot regions do not fit the image")
    gaps = rng.dirichlet(np.ones(n_rest)) * slack
    regions = [boot_sector]
    cursor = boot_sector.size + 16 * KiB
    for region_size, gap in zip(sizes, gaps):
        cursor += int(gap)
        regions.append(HotRegion(int(cursor), int(region_size)))
        cursor += int(region_size)
    # Boot-time writes land in a dedicated area after the last hot region
    # when possible; otherwise in the largest tail gap.
    write_base = min(cursor + 16 * KiB, size - 32 * MiB if size > 64 * MiB else size // 2)
    return VmImage(tag=tag, payload=payload, hot_regions=regions, write_base=int(write_base))
