"""Measurement side of the simulator: traffic counters and raw samples.

Everything the benchmark harness reports — total network traffic (Fig. 4d),
boot/snapshot latencies (Figs. 4a/b, 5a/b), per-tier bytes — is recorded
here. Metrics are deliberately dumb containers: they never affect simulated
behaviour, so enabling/disabling them cannot change a timeline.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ascending ``sorted_values`` by nearest rank.

    The 1-based rank is ``q * n`` rounded half up, clamped to ``[1, n]``;
    not the textbook ``ceil(q * n)``, which for n = 1360 and q = 0.99 picks
    the 1347th value where this rule picks the 1346th. An empty sample
    reads 0.0. This is the simulator's one percentile rule: every reported
    percentile goes through it.
    """
    n = len(sorted_values)
    if not n:
        return 0.0
    return sorted_values[max(1, min(n, int(q * n + 0.5))) - 1]


@dataclass
class Metrics:
    """Per-simulation measurement sink."""

    #: bytes moved over the wire, by category ("bulk", "message", "chunk", ...)
    traffic: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: raw sample values by series, e.g. "boot-time"
    raw: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    #: event counters, e.g. "remote-read", "chunk-fetch", "rpc"
    counters: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: per-tier wire bytes when a topology is attached, keyed "scope/kind"
    #: ("intra-rack/payload", "cross-rack/rpc-response", ...); empty on the
    #: flat fabric so flat-model metric dumps are unchanged
    topo_traffic: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    # ------------------------------------------------------------------ #
    def add_traffic(self, nbytes: int, kind: str = "bulk") -> None:
        self.traffic[kind] += int(nbytes)

    def total_traffic(self) -> int:
        return sum(self.traffic.values())

    def add_topo_traffic(self, scope: str, kind: str, nbytes: int) -> None:
        self.topo_traffic[f"{scope}/{kind}"] += int(nbytes)

    def topo_scope_totals(self) -> Dict[str, int]:
        """Per-tier byte totals summed over flow kinds, e.g. {"cross-rack": n}."""
        totals: Dict[str, int] = {}
        for key, nbytes in self.topo_traffic.items():
            scope = key.split("/", 1)[0]
            totals[scope] = totals.get(scope, 0) + nbytes
        return totals

    def topo_kind_bytes(self, scope: str, kind: str) -> int:
        return self.topo_traffic.get(f"{scope}/{kind}", 0)

    def sample(self, name: str, value: float) -> None:
        self.raw[name].append(value)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n
