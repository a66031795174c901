"""Deterministic random-number streams.

Every stochastic component of the simulation (boot-trace generation, access
skew, hypervisor init overhead, ...) draws from a named sub-stream derived
from a single experiment seed. This guarantees:

* **determinism** — the same seed replays the exact same simulated timeline,
  which the test suite asserts;
* **independence** — adding draws to one component does not perturb another
  component's stream (each name gets its own generator).

Usage::

    streams = RngStreams(seed=42)
    boot_rng = streams.get("boot-trace", vm_id)
    skew = boot_rng.uniform(0.0, 0.2)
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from .errors import SimulationError


class RngStreams:
    """A family of independent, reproducibly-seeded numpy generators."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._drawn: set[tuple[Hashable, ...]] = set()

    def get(self, *name: Hashable) -> np.random.Generator:
        """Return the generator of sub-stream ``name``, which is drawn once.

        The same ``(seed, *name)`` always yields a generator producing the
        same sequence; distinct names yield statistically independent
        sequences (numpy's ``SeedSequence`` spawning guarantees this). Only
        names are kept; a repeat raises rather than restart its sequence.
        """
        key = tuple(name)
        if key in self._drawn:
            raise SimulationError(f"RNG stream {key!r} drawn twice")
        self._drawn.add(key)
        material = [self.seed] + [_hash_part(part) for part in key]
        return np.random.default_rng(np.random.SeedSequence(material))


def _hash_part(part: Hashable) -> int:
    """Map an arbitrary hashable stream-name part to a stable nonnegative int.

    Python's builtin ``hash`` on str is salted per-process, so strings are
    folded explicitly to keep streams stable across runs.
    """
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    if isinstance(part, str):
        acc = 2166136261
        for ch in part.encode():
            acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
        return acc
    return _hash_part(repr(part))
