"""The off-by-default guarantee and determinism of the enabled path.

With ``p2p=False`` (the default) the exchange must be invisible: a build
that never mentions p2p and a build passing ``p2p=False`` explicitly give
bit-identical timelines. With ``p2p=True`` the timeline changes (that is
the point) but stays deterministic, and providers serve fewer bytes.
"""

import pytest

from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud, deploy
from repro.common.units import KiB, MiB
from repro.vmsim import make_image

CALIB = Calibration(
    image=ImageSpec(size=64 * MiB, chunk_size=256 * KiB, boot_touched_bytes=8 * MiB)
)
N_NODES = 8
SEED = 7


def _run_cycle(**cloud_kw):
    cloud = build_cloud(N_NODES, seed=SEED, calib=CALIB, **cloud_kw)
    image = make_image(CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=16)
    result = deploy(cloud, image, N_NODES, "mirror")
    return cloud, result


def _timeline(cloud, result):
    return {
        "now": cloud.env.now,
        "events": cloud.env.event_count,
        "traffic": dict(cloud.metrics.traffic),
        "boot_times": tuple(result.boot_times),
        "completion": result.completion_time,
    }


class TestOffByDefault:
    def test_disabled_is_bit_identical_to_default_build(self):
        a = _timeline(*_run_cycle())
        b = _timeline(*_run_cycle(p2p=False))
        assert a == b

    def test_disabled_build_carries_no_p2p_state(self):
        cloud, _ = _run_cycle()
        assert cloud.p2p is None


class TestEnabledPath:
    def test_enabled_timeline_is_reproducible(self):
        a = _timeline(*_run_cycle(p2p=True))
        b = _timeline(*_run_cycle(p2p=True))
        assert a == b

    @pytest.mark.parametrize("directory", ["announce", "rendezvous"])
    def test_deploy_reports_stats(self, directory):
        cloud, result = _run_cycle(p2p=True, p2p_directory=directory)
        assert cloud.p2p is not None
        stats = cloud.p2p.stats()
        assert stats["peer_hit_ratio"] > 0.0
        assert len(result.boot_times) == N_NODES

    def test_exchange_offloads_providers(self):
        base_cloud, base = _run_cycle()
        p2p_cloud, res = _run_cycle(p2p=True)
        base_pb = base_cloud.metrics.counters["provider-bytes"]
        p2p_pb = p2p_cloud.metrics.counters["provider-bytes"]
        assert p2p_pb < base_pb
        # every instance still booted
        assert len(res.boot_times) == len(base.boot_times) == N_NODES

    def test_cache_budget_knob_reaches_the_caches(self):
        cloud, _res = _run_cycle(p2p=True, p2p_cache_bytes=2 * MiB)
        for cache in cloud.p2p.caches.values():
            assert cache.capacity_bytes == 2 * MiB
