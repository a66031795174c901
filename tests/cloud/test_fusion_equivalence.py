"""Event fusion is exact: full-stack outcomes equal the step-by-step reference.

The fused chains (metadata ``get_nodes`` call and scatter, page-cache write,
callback flusher; DESIGN.md §8) must reproduce every simulated instant,
counter and byte of the design that waits out each delay as its own event
(``tests/reference_unfused.py``). Equality below is exact on purpose and
covers everything except the event count — which must drop.
"""

import pytest
from reference_unfused import unfused

from repro.blobseer import BlobSeerDeployment
from repro.calibration import Calibration, ImageSpec
from repro.churn import ChurnEngine, ChurnSpec
from repro.cloud import build_cloud, deploy, snapshot_all
from repro.common.payload import Payload
from repro.common.units import KiB, MiB
from repro.core import MirrorVFS
from repro.core.prefetch import AccessProfile, Prefetcher
from repro.runner import build_point_cloud, profiles
from repro.simkit.host import Fabric
from repro.vmsim import make_image

CALIB = Calibration(
    image=ImageSpec(size=64 * MiB, chunk_size=256 * KiB, boot_touched_bytes=8 * MiB)
)


def fingerprint(cloud, **series):
    """Everything a run produced, minus the event count (returned apart)."""
    m = cloud.metrics
    outcome = {
        "now": cloud.env.now,
        "counters": dict(m.counters),
        "traffic": dict(m.traffic),
        "topo_traffic": dict(m.topo_traffic),
        "boot_times": list(m.raw["boot-time"]),
        "stored": cloud.blobseer.stored_bytes(),
        **series,
    }
    return outcome, cloud.env.event_count


def deploy_snapshot_cycle(**cloud_kw):
    cloud = build_cloud(8, seed=7, calib=CALIB, with_pvfs=False, **cloud_kw)
    image = make_image(CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=16)
    result = deploy(cloud, image, 8, "mirror")
    campaign = snapshot_all(cloud, result.vms, "mirror")
    return fingerprint(
        cloud,
        completion=result.completion_time,
        snapshot_times=[s.duration for s in campaign.per_instance],
        versions=[
            (vm.backend.handle.target_blob, vm.backend.handle.target_version)
            for vm in result.vms
        ],
    )


def racked_deploy():
    return deploy_snapshot_cycle(racks=4, oversubscription=4.0, topo_aware=True)


def p2p_churn_with_restores():
    profile = profiles.resolve_profile("churn-smoke")
    cloud, image = build_point_cloud(
        profile, 3, with_pvfs=False, racks=2, oversubscription=4.0,
        topo_aware=True, p2p=True, p2p_directory="announce",
        p2p_cache_bytes=64 * MiB, p2p_locate_fanout=2,
    )
    spec = ChurnSpec(
        n_deploys=30, arrivals="poisson", rate=0.6, n_tenants=4,
        mean_lifetime=16, min_lifetime=4, snapshot_fraction=0.5,
        restore_fraction=0.5, diff_bytes=profile.diff_bytes,
        policy="least-loaded", gc_interval=30, max_queue=32,
    )
    result = ChurnEngine(cloud, image, spec).run()
    assert result.summary["requests"]["restores_completed"] > 0
    return fingerprint(
        cloud, summary=result.summary, placements=result.placements,
        trace_crc=result.trace_crc,
    )


def prefetcher_beside_a_boot():
    """Two writers on one mirror file: the prefetcher and the reads it races."""
    chunk = 512 * KiB
    n_chunks = 48
    fab = Fabric(seed=11)
    fab.connection_setup = 0.004
    hosts = [fab.add_host(f"node{i}") for i in range(4)]
    dep = BlobSeerDeployment(fab, hosts, hosts, fab.add_host("manager"))
    rec = dep.seed_blob(Payload.opaque("img", n_chunks * chunk), chunk)
    vfs = MirrorVFS(hosts[1], dep.client(hosts[1]))
    profile = AccessProfile(chunk)
    profile.record_run(list(range(n_chunks)))
    read_done = []
    writers = {"now": 0, "peak": 0}

    def scenario():
        handle = yield from vfs.open(rec.blob_id, rec.version)
        device = handle.local.device
        write = device.write  # whichever form is installed

        def counted_write(nbytes):
            writers["now"] += 1
            writers["peak"] = max(writers["peak"], writers["now"])
            try:
                yield from write(nbytes)
            finally:
                writers["now"] -= 1

        device.write = counted_write
        prefetching = Prefetcher(handle, profile, window=6).start()
        for k in range(n_chunks):
            # every chunk once: some ahead of the prefetcher, some behind it
            idx = (k * 7) % n_chunks
            yield from handle.read(idx * chunk + 100 * k, 3000)
            read_done.append(fab.env.now)
        fetched = yield prefetching
        return fetched

    fetched = fab.run(fab.env.process(scenario()))
    fab.run()  # drain the write-back
    assert writers["peak"] > 1, "the scenario must overlap writes on the device"
    m = fab.metrics
    outcome = {
        "now": fab.env.now, "fetched": fetched, "read_done": read_done,
        "counters": dict(m.counters), "traffic": dict(m.traffic),
    }
    return outcome, fab.env.event_count


SCENARIOS = {
    "mirror deploy + snapshot": deploy_snapshot_cycle,
    "4-rack deploy + snapshot": racked_deploy,
    "p2p churn with restores": p2p_churn_with_restores,
    "prefetcher beside a boot": prefetcher_beside_a_boot,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fused_run_equals_stepwise_reference(name):
    scenario = SCENARIOS[name]
    fused, fused_events = scenario()
    with unfused():
        stepwise, stepwise_events = scenario()
    assert fused == stepwise
    # the saving is the point: a third of the events or more are gone
    assert fused_events < 0.67 * stepwise_events
