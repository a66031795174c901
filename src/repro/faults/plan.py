"""Declarative, seed-reproducible fault plans.

A :class:`FaultPlan` is a pure value: a schedule of :class:`FaultEvent`\\ s
to inject into a running cloud. Plans are data, not behaviour — the
:class:`~repro.faults.injector.FaultInjector` turns them into simkit
processes. Because a plan is written out explicitly or generated without
randomness, the same (cloud seed, fault plan) pair always reproduces the
same timeline bit for bit, across runs and across sweep workers.

Event times are *relative to the moment the plan is armed* (deployments arm
right before the boot phase, so ``at=2.0`` means two simulated seconds into
the multideployment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

#: injectable event kinds
KINDS = ("provider-crash", "meta-crash", "disk-stall", "nic-degrade")


@dataclass(frozen=True)
class FaultEvent:
    """One injectable incident.

    * ``provider-crash`` / ``meta-crash`` — the target host crashes (RPCs
      fail, flows abort, spawned processes die, volatile state is lost) and,
      if ``duration`` > 0, recovers that many seconds later. The two kinds
      crash the *whole host*; the distinct labels record which service the
      plan meant to hit (providers and metadata shards are co-located).
    * ``disk-stall`` — the target's disk bandwidths divide by ``factor``
      for ``duration`` seconds (0 = permanently).
    * ``nic-degrade`` — the target's NIC capacities divide by ``factor``
      for ``duration`` seconds (0 = permanently).
    """

    at: float
    kind: str
    target: str
    duration: float = 0.0
    factor: float = 2.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {KINDS}")
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.duration < 0:
            raise ValueError(f"fault duration must be >= 0, got {self.duration}")
        if self.factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1, got {self.factor}")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered schedule of fault events (empty plan = no faults)."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "events",
            tuple(sorted(self.events, key=lambda e: (e.at, e.kind, e.target))),
        )

    def __bool__(self) -> bool:
        return bool(self.events)

    def describe(self) -> str:
        if not self.events:
            return "empty fault plan"
        return "; ".join(
            f"t={e.at:g}s {e.kind} {e.target}"
            + (f" for {e.duration:g}s" if e.duration > 0 else " (permanent)")
            for e in self.events
        )

    # ------------------------------------------------------------------ #
    # generators
    # ------------------------------------------------------------------ #
    @classmethod
    def staggered_crashes(
        cls,
        targets: Sequence[str],
        n_crashes: int,
        window: float,
        mttr: float = 0.0,
        kind: str = "provider-crash",
    ) -> "FaultPlan":
        """Fully deterministic plan: crashes evenly spaced across ``window``.

        Victims cycle through every *other* entry of ``targets`` (then the
        odd entries), so with round-robin replica placement two adjacent
        providers — which share chunks at replication 2 — are never both hit
        until more than half the targets are down. ``mttr`` > 0 revives each
        victim that many seconds after its crash; 0 means permanent loss.
        """
        if not targets:
            raise ValueError("no targets to crash")
        if n_crashes > len(targets):
            raise ValueError(f"{n_crashes} crashes > {len(targets)} targets")
        order = list(targets[::2]) + list(targets[1::2])
        events = [
            FaultEvent(
                at=window * (i + 1) / (n_crashes + 1),
                kind=kind,
                target=order[i],
                duration=mttr,
            )
            for i in range(n_crashes)
        ]
        return cls(tuple(events))

    @classmethod
    def degradations(
        cls,
        targets: Sequence[str],
        kind: str,
        at: float,
        duration: float,
        factor: float,
    ) -> "FaultPlan":
        """One simultaneous ``disk-stall``/``nic-degrade`` on every target."""
        return cls(
            tuple(
                FaultEvent(at=at, kind=kind, target=t, duration=duration, factor=factor)
                for t in targets
            )
        )
