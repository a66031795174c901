"""A churn run under a provider crash: every placed deploy is accounted for."""

from repro.churn import ChurnEngine, ChurnSpec
from repro.churn.arrivals import RestoreRequest
from repro.common.units import MiB
from repro.faults import FaultPlan
from repro.faults.plan import FaultEvent
from repro.runner.points import build_point_cloud
from repro.runner.profiles import resolve_profile


def crashed_churn_run():
    """The suite's churn-mixed setup at smoke size, node000 crashing at 20 s."""
    profile = resolve_profile("churn-smoke")
    cloud, image = build_point_cloud(
        profile, 1, with_pvfs=False, racks=2, oversubscription=4.0,
        topo_aware=True, p2p=True, p2p_directory="announce",
        p2p_cache_bytes=64 * MiB, p2p_locate_fanout=2,
    )
    spec = ChurnSpec(
        n_deploys=60, arrivals="poisson", rate=0.6, n_tenants=8,
        mean_lifetime=16, min_lifetime=4, snapshot_fraction=0.5,
        restore_fraction=0.4, diff_bytes=profile.diff_bytes,
        policy="least-loaded", gc_interval=60, max_queue=32,
    )
    engine = ChurnEngine(cloud, image, spec)
    cloud.inject_faults(FaultPlan((FaultEvent(20.0, "provider-crash", "node000"),)))
    return cloud, engine, engine.run()


def test_every_placed_deploy_completes_or_is_counted_failed():
    cloud, engine, res = crashed_churn_run()
    r = res.summary["requests"]
    counters = cloud.metrics.counters
    placed = sum(1 for p in res.placements if p >= 0)
    died_booting = placed - r["booted"]
    assert died_booting > 0  # the crash really struck
    # a VM that booted either completed or died afterwards, counted
    assert r["booted"] - r["completed"] == counters.get("vm-failed", 0)
    # one that never booted is counted too; restored VMs that die booting
    # add theirs, and each of those is a missed restore
    assert died_booting <= counters.get("boot-failed", 0)
    assert counters.get("boot-failed", 0) - died_booting <= r["restores_missed"]
    # a restore a fault denies is a missed one, never a lost one
    asked = sum(1 for req in engine.trace if isinstance(req, RestoreRequest))
    assert r["restores_completed"] + r["restores_missed"] == asked
