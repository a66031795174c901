"""Crash marks live on the crashed ``Host``, not in a process-wide registry.

A cloud whose hosts crashed, or were marked unreachable, and were never
revived must leave no trace on a cloud built later in the same process: no
reset step stands between the two.
"""

import gc

from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud, deploy
from repro.common.units import KiB, MiB
from repro.vmsim import make_image

CALIB = Calibration(
    image=ImageSpec(size=16 * MiB, chunk_size=256 * KiB, boot_touched_bytes=2 * MiB)
)
N_NODES = 4
SEED = 11


def _deploy_timeline():
    cloud = build_cloud(N_NODES, seed=SEED, calib=CALIB)
    image = make_image(CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=8)
    result = deploy(cloud, image, N_NODES, "mirror")
    return {
        "now": cloud.env.now,
        "events": cloud.env.event_count,
        "traffic": dict(cloud.metrics.traffic),
        "counters": dict(cloud.metrics.counters),
        "boot_times": tuple(result.boot_times),
        "down": [h.name for h in cloud.fabric.hosts.values() if h.down],
    }


def _leave_a_crashed_cloud():
    cloud = build_cloud(N_NODES, seed=SEED, calib=CALIB)
    cloud.compute[0].fail()              # crashed, never recovered
    cloud.compute[1].down = True  # unreachable without a crash
    assert cloud.compute[0].down and cloud.compute[1].down


def test_a_crash_in_one_cloud_leaves_a_later_cloud_fresh():
    fresh = _deploy_timeline()
    _leave_a_crashed_cloud()
    gc.collect()  # the crashed fabric is freed: its address may be reused
    assert _deploy_timeline() == fresh
    assert fresh["down"] == [] and "host-crash" not in fresh["counters"]
