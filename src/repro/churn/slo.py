"""Steady-state service-level metrics for churn runs.

One :class:`SloTracker` per run, fed by the lifecycle processes: raw
samples of boot latency, queue wait, snapshot commit latency and restore
latency (exact means, and percentiles by
:func:`~repro.simkit.trace.nearest_rank`), a time-integrated
slot-utilization accumulator, admission accounting, and the
storage-footprint timeline that the GC-cadence ablation plots. The summary
is a plain nested dict of floats/ints (JSON-able, deterministically
ordered) so runner results and benchmark artifacts can embed it verbatim.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..simkit.trace import nearest_rank


def _latency(ordered: List[float]) -> Dict[str, float]:
    """Count and p50/p99 of one ascending latency series."""
    return {
        "count": len(ordered),
        "p50_exact": nearest_rank(ordered, 0.50),
        "p99_exact": nearest_rank(ordered, 0.99),
    }


class SloTracker:
    """Accumulates one churn run's steady-state metrics."""

    def __init__(self, total_slots: int):
        self.total_slots = total_slots
        # raw latency samples, in arrival order
        self.boot: List[float] = []
        self.queue_wait: List[float] = []
        self.snapshot: List[float] = []
        # admission / lifecycle accounting
        self.deploys = 0
        self.rejected = 0
        self.canceled = 0       # torn down while still queued
        self.completed = 0
        self.snapshots_taken = 0
        self.snapshots_missed = 0  # target already gone (or never admitted)
        self.lineages_retired = 0  # clone blobs unpublished at teardown
        # restore-to-version accounting (repro.lineage wired into churn)
        self.restore: List[float] = []
        self.restores_completed = 0
        self.restores_missed = 0   # no surviving snapshot, or already GC'd
        self.restores_from_retired = 0
        self.restore_hops_total = 0
        # GC / storage hygiene
        self.gc_sweeps = 0
        self.bytes_reclaimed = 0
        self.footprint: List[Tuple[float, int]] = []
        # time-integrated slot utilization
        self._busy = 0
        self._last_t = 0.0
        self._busy_integral = 0.0

    # ------------------------------------------------------------------ #
    def on_deploy(self) -> None:
        self.deploys += 1

    def on_reject(self) -> None:
        self.rejected += 1

    def on_cancel(self) -> None:
        self.canceled += 1

    def on_boot(self, queue_wait: float, boot_time: float) -> None:
        self.queue_wait.append(queue_wait)
        self.boot.append(boot_time)

    def on_complete(self) -> None:
        self.completed += 1

    def on_snapshot(self, commit_latency: float) -> None:
        self.snapshot.append(commit_latency)
        self.snapshots_taken += 1

    def on_snapshot_missed(self) -> None:
        self.snapshots_missed += 1

    def on_retire(self) -> None:
        self.lineages_retired += 1

    def on_restore(self, latency: float, hops: int, from_retired: bool) -> None:
        self.restore.append(latency)
        self.restores_completed += 1
        self.restore_hops_total += hops
        if from_retired:
            self.restores_from_retired += 1

    def on_restore_missed(self) -> None:
        self.restores_missed += 1

    def on_gc(self, report) -> None:
        self.gc_sweeps += 1
        self.bytes_reclaimed += report.bytes_reclaimed

    def on_footprint(self, t: float, stored_bytes: int) -> None:
        self.footprint.append((float(t), int(stored_bytes)))

    def on_slots(self, t: float, busy: int) -> None:
        """Slot occupancy changed at time ``t`` (integrate the old level)."""
        self._busy_integral += self._busy * (t - self._last_t)
        self._busy = busy
        self._last_t = t

    # ------------------------------------------------------------------ #
    def utilization(self, now: float) -> float:
        """Mean fraction of instance slots occupied over [0, now]."""
        if now <= 0 or self.total_slots == 0:
            return 0.0
        integral = self._busy_integral + self._busy * (now - self._last_t)
        return integral / (now * self.total_slots)

    def summary(self, now: float) -> dict:
        booted = len(self.boot)
        peak = max((v for _, v in self.footprint), default=0)
        final = self.footprint[-1][1] if self.footprint else 0
        # means sum the sorted samples: the order fixes the float result
        boots = sorted(self.boot)
        waits = sorted(self.queue_wait)
        return {
            "requests": {
                "deploys": self.deploys,
                "rejected": self.rejected,
                "canceled": self.canceled,
                "booted": booted,
                "completed": self.completed,
                "snapshots_taken": self.snapshots_taken,
                "snapshots_missed": self.snapshots_missed,
                "lineages_retired": self.lineages_retired,
                "restores_completed": self.restores_completed,
                "restores_missed": self.restores_missed,
                "restores_from_retired": self.restores_from_retired,
            },
            "boot_latency": {
                **_latency(boots),
                "mean": sum(boots) / booted if booted else 0.0,
            },
            "queue_wait": {
                **_latency(waits),
                "mean": sum(waits) / booted if booted else 0.0,
            },
            "snapshot_latency": _latency(sorted(self.snapshot)),
            "restore_latency": {
                **_latency(sorted(self.restore)),
                "mean_hops": (
                    self.restore_hops_total / self.restores_completed
                    if self.restores_completed else 0.0
                ),
            },
            "rejection_rate": self.rejected / self.deploys if self.deploys else 0.0,
            "utilization": self.utilization(now),
            "gc": {
                "sweeps": self.gc_sweeps,
                "bytes_reclaimed": self.bytes_reclaimed,
                "footprint_samples": len(self.footprint),
                "footprint_peak": peak,
                "footprint_final": final,
            },
            "makespan": now,
        }
