"""Timeline determinism of the full stack (regression guard for the fast path).

The engine promises bit-identical timelines for identical seeds; every
optimization in the simulator fast path (sentinel wakeups, incremental fair
share, shared process bootstraps, merged timeouts) argues it preserves the
exact event timeline. This test pins that promise at the system level: a
full deploy + snapshot cycle run twice from the same seed must agree on the
final clock, the processed-event count, and every traffic counter.
"""

from contextlib import nullcontext

import pytest
from reference_network import eager_fabric

from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud, deploy, snapshot_all
from repro.common.units import KiB, MiB
from repro.vmsim import make_image

CALIB = Calibration(
    image=ImageSpec(size=64 * MiB, chunk_size=256 * KiB, boot_touched_bytes=8 * MiB)
)
N_NODES = 8
SEED = 7


def _run_cycle(approach="mirror", with_snapshot=False):
    cloud = build_cloud(N_NODES, seed=SEED, calib=CALIB)
    image = make_image(CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=16)
    result = deploy(cloud, image, N_NODES, approach)
    if with_snapshot:
        snapshot_all(cloud, result.vms, approach)
    return {
        "now": cloud.env.now,
        "events": cloud.env.event_count,
        "traffic": dict(cloud.metrics.traffic),
        "boot_times": tuple(result.boot_times),
        "completion": result.completion_time,
    }


@pytest.mark.parametrize("approach", ["mirror", "qcow2-pvfs", "prepropagation"])
def test_deploy_timeline_is_reproducible(approach):
    a = _run_cycle(approach)
    b = _run_cycle(approach)
    # exact equality on purpose: same seed must give the same timeline
    # bit for bit, not merely approximately
    assert a["now"] == b["now"]
    assert a["events"] == b["events"]
    assert a["traffic"] == b["traffic"]
    assert a["boot_times"] == b["boot_times"]
    assert a["completion"] == b["completion"]


def test_deploy_snapshot_timeline_is_reproducible():
    a = _run_cycle(with_snapshot=True)
    b = _run_cycle(with_snapshot=True)
    assert a == b


def test_distinct_seeds_diverge():
    """Sanity check that the equality above is not vacuous."""
    a = _run_cycle()
    cloud = build_cloud(N_NODES, seed=SEED + 1, calib=CALIB)
    image = make_image(CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=16)
    deploy(cloud, image, N_NODES, "mirror")
    assert cloud.env.now != a["now"] or cloud.env.event_count != a["events"]


def _engine(name):
    """Build with the cohort engine (production) or the eager reference."""
    return nullcontext() if name == "cohort" else eager_fabric()


def _run_engine_cycle(
    engine, approach="mirror", with_snapshot=False, traced=False, **cloud_kw
):
    """One full cycle under an explicit equal-share engine."""
    with _engine(engine):
        cloud = build_cloud(N_NODES, seed=SEED, calib=CALIB, **cloud_kw)
    tracer = None
    if traced:
        from repro import obs

        tracer = obs.install_tracer(cloud.fabric)
    image = make_image(
        CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=16
    )
    result = deploy(cloud, image, N_NODES, approach)
    snapshots = ()
    if with_snapshot:
        snap = snapshot_all(cloud, result.vms, approach)
        snapshots = tuple(s.duration for s in snap.per_instance)
    return {
        "now": cloud.env.now,
        "events": cloud.env.event_count,
        "traffic": dict(cloud.metrics.traffic),
        "topo_traffic": dict(cloud.metrics.topo_traffic),
        "boot_times": tuple(result.boot_times),
        "completion": result.completion_time,
        "snapshots": snapshots,
        "spans": len(tracer.spans) if tracer is not None else 0,
    }


def _run_engine_fault_cycle(engine):
    """A fault-injected deployment (NIC degradation + a provider crash that
    replication survives) under an explicit equal-share engine."""
    from repro.faults import FaultPlan, RetryPolicy, resilient_deploy
    from repro.faults.plan import FaultEvent
    from repro.simkit import rpc

    with _engine(engine):
        cloud = build_cloud(
            N_NODES, seed=SEED, calib=CALIB,
            replication_factor=2,
            retry=RetryPolicy(attempts=4, base_delay=0.25, rpc_timeout=1.0),
        )
    plan = FaultPlan(
        (
            FaultEvent(
                at=0.3, kind="nic-degrade",
                target=cloud.compute[1].name, factor=4.0,
            ),
            FaultEvent(
                at=0.6, kind="provider-crash",
                target=cloud.compute[N_NODES - 1].name, duration=2.0,
            ),
        )
    )
    image = make_image(
        CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=16
    )
    try:
        res = resilient_deploy(cloud, image, N_NODES - 2, "mirror", plan=plan)
    finally:
        rpc.reset_failures()  # the down-host registry is process-global
    return {
        "now": cloud.env.now,
        "events": cloud.env.event_count,
        "traffic": dict(cloud.metrics.traffic),
        "boot_times": tuple(res.boot_times),
        "completion": res.completion_time,
        "survival": res.survival_rate,
        "boots_failed": res.boots_failed,
    }


class TestCohortEngineMatchesReference:
    """The cohort engine against the eager per-flow reference, full stack.

    The cohort engine must not move a single event on the fig. 4 / fig. 5
    cycles: same clock, same event count, same traffic, same boot times —
    exact equality, including traced, fault-injected and racked runs (one
    ``fail_nic`` is one rebalance in both engines, so event counts agree
    there too).
    """

    @pytest.mark.parametrize("approach", ["mirror", "qcow2-pvfs", "prepropagation"])
    def test_deploy_bit_identical(self, approach):
        reference = _run_engine_cycle("reference", approach)
        cohort = _run_engine_cycle("cohort", approach)
        assert cohort == reference

    def test_snapshot_cycle_bit_identical(self):
        reference = _run_engine_cycle("reference", with_snapshot=True)
        cohort = _run_engine_cycle("cohort", with_snapshot=True)
        assert cohort == reference

    def test_traced_cycle_bit_identical(self):
        reference = _run_engine_cycle("reference", traced=True)
        cohort = _run_engine_cycle("cohort", traced=True)
        assert cohort == reference
        assert cohort["spans"] > 0

    def test_fault_injected_results_identical(self):
        reference = _run_engine_fault_cycle("reference")
        cohort = _run_engine_fault_cycle("cohort")
        assert cohort == reference
        # the crash must actually have bitten (otherwise this is vacuous)
        assert cohort["survival"] > 0

    def test_racked_p2p_cycle_bit_identical(self):
        """4 racks at 4:1, peer exchange on, deploy + snapshot: provider
        and peer flows cross the oversubscribed trunks."""
        kw = dict(
            with_snapshot=True, racks=4, oversubscription=4.0, p2p=True,
            with_pvfs=False,
        )
        reference = _run_engine_cycle("reference", **kw)
        cohort = _run_engine_cycle("cohort", **kw)
        assert cohort == reference
        cross = sum(
            n for key, n in cohort["topo_traffic"].items() if key.startswith("cross-")
        )
        assert cross > 0, "no byte crossed a trunk: the racked cycle is vacuous"
