"""``SloTracker.summary()``: the exact key set of each latency section."""

import pytest

from repro.churn.slo import SloTracker

EXACT = {"count", "p50_exact", "p99_exact"}
SECTIONS = {
    "boot_latency": EXACT | {"mean"},
    "queue_wait": EXACT | {"mean"},
    "snapshot_latency": EXACT,
    "restore_latency": EXACT | {"mean_hops"},
}


def _fed_tracker():
    slo = SloTracker(total_slots=4)
    for wait, boot in ((0.5, 3.0), (0.0, 1.0), (0.25, 2.0)):
        slo.on_boot(wait, boot)
    slo.on_snapshot(0.2)
    slo.on_snapshot(0.1)
    slo.on_restore(4.0, from_retired=False)
    return slo


@pytest.mark.parametrize("slo", [SloTracker(total_slots=4), _fed_tracker()],
                         ids=["empty", "fed"])
def test_latency_sections_hold_exactly_their_keys(slo):
    summary = slo.summary(now=10.0)
    assert {name: set(summary[name]) for name in SECTIONS} == SECTIONS


def test_latency_values_are_nearest_rank_over_the_samples():
    s = _fed_tracker().summary(now=10.0)
    assert s["boot_latency"] == {"count": 3, "mean": 2.0, "p50_exact": 2.0, "p99_exact": 3.0}
    assert s["queue_wait"]["p50_exact"] == 0.25
    assert s["snapshot_latency"] == {"count": 2, "p50_exact": 0.1, "p99_exact": 0.2}
    assert s["restore_latency"] == {
        "count": 1, "p50_exact": 4.0, "p99_exact": 4.0, "mean_hops": 1.0,
    }


def test_empty_tracker_reads_zero():
    s = SloTracker(total_slots=4).summary(now=0.0)
    assert s["boot_latency"] == {"count": 0, "mean": 0.0, "p50_exact": 0.0, "p99_exact": 0.0}
    assert s["restore_latency"]["mean_hops"] == 0.0
