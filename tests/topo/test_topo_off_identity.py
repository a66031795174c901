"""The topology-off guarantee: disabled fabric leaves every timeline alone.

Two invariants protect the seed model. A build that never mentions racks
must stay bit-identical to the pre-topology tree (guaranteed trivially: no
topology object exists). And an *explicit single-rack* topology — the
degenerate fabric whose one top-of-rack switch is non-blocking — must only
add tier accounting, never move an event: no path crosses a trunk when
there is one rack, so every flow sees exactly the flat fabric's two links. These tests pin the second
invariant across every workload family (multideployment, multisnapshot,
p2p deploy, long-horizon churn).
"""

from repro.calibration import Calibration, ImageSpec
from repro.churn import ChurnEngine, ChurnSpec
from repro.cloud import build_cloud, deploy, snapshot_all
from repro.common.units import KiB, MB, MiB
from repro.topo import Topology
from repro.vmsim import make_image

CALIB = Calibration(
    image=ImageSpec(size=32 * MiB, chunk_size=256 * KiB, boot_touched_bytes=4 * MiB)
)
N_NODES = 8
SEED = 11


def single_rack_topology():
    topo = Topology(n_racks=1, rack_uplink=100 * MB)
    topo.place_blocked([f"node{i:03d}" for i in range(N_NODES)])
    return topo


def _build(flat, **cloud_kw):
    if not flat:
        cloud_kw["topology"] = single_rack_topology()
    cloud = build_cloud(N_NODES, seed=SEED, calib=CALIB, **cloud_kw)
    image = make_image(
        CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=16
    )
    return cloud, image


def _timeline(cloud, extra=()):
    return {
        "now": cloud.env.now,
        "events": cloud.env.event_count,
        "traffic": dict(cloud.metrics.traffic),
        "extra": tuple(extra),
    }


def _deploy_timeline(flat, **cloud_kw):
    cloud, image = _build(flat, **cloud_kw)
    res = deploy(cloud, image, N_NODES, "mirror")
    return cloud, _timeline(
        cloud,
        tuple(res.boot_times) + (res.completion_time, res.total_traffic),
    )


class TestSingleRackIsBitIdentical:
    def test_multideployment(self):
        _flat_cloud, flat = _deploy_timeline(flat=True)
        topo_cloud, topo = _deploy_timeline(flat=False)
        assert flat == topo
        # the degenerate fabric classifies traffic, and none of it ever
        # left the rack (so no flow had a trunk on its path)
        assert set(topo_cloud.metrics.topo_scope_totals()) == {"intra-rack"}

    def test_multideployment_with_p2p(self):
        _a, flat = _deploy_timeline(flat=True, p2p=True)
        _b, topo = _deploy_timeline(flat=False, p2p=True)
        assert flat == topo

    def test_multisnapshot(self):
        def cycle(flat):
            cloud, image = _build(flat)
            res = deploy(cloud, image, N_NODES, "mirror")
            snap = snapshot_all(cloud, res.vms, "mirror")
            durations = tuple(s.duration for s in snap.per_instance)
            return _timeline(
                cloud,
                durations + (snap.completion_time, snap.total_bytes_moved),
            )

        assert cycle(flat=True) == cycle(flat=False)

    def test_churn_run(self):
        spec = ChurnSpec(
            n_deploys=24,
            rate=1.5,
            n_tenants=3,
            mean_lifetime=10.0,
            min_lifetime=2.0,
            snapshot_fraction=0.25,
            diff_bytes=256 * KiB,
            policy="least-loaded",
            gc_interval=30.0,
            sample_interval=15.0,
        )

        def cycle(flat):
            cloud, image = _build(flat, with_pvfs=False)
            res = ChurnEngine(cloud, image, spec).run()
            return _timeline(cloud, (repr(res.summary),))

        assert cycle(flat=True) == cycle(flat=False)

    def test_flat_metrics_have_no_topo_traffic(self):
        cloud, _ = _deploy_timeline(flat=True)
        assert cloud.metrics.topo_traffic == {}
