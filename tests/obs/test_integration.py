"""System-level acceptance: tracing never perturbs the timeline, and the
span tree it produces actually explains where deployment time went.

Two pinned guarantees:

* **Bit-identity** — a traced run of the fig. 4 / fig. 5 cycles produces
  exactly the same clock, event count, traffic, and boot times as an
  untraced run. Spans are observers only.
* **Coverage** — every traced VM boot is >= 95% explained by specific
  (non-"other") descendant spans, and the per-category breakdown sums to
  the boot time within 1%.
"""

import json

import pytest

from repro import obs
from repro.calibration import Calibration, ImageSpec
from repro.cloud import build_cloud, deploy, seed_image, snapshot_all
from repro.common.errors import ProviderUnavailableError
from repro.common.units import KiB, MiB
from repro.vmsim import make_image

CALIB = Calibration(
    image=ImageSpec(size=64 * MiB, chunk_size=256 * KiB, boot_touched_bytes=8 * MiB)
)
N_NODES = 8
N_INSTANCES = 4
SEED = 7


def run_cycle(approach="mirror", traced=False, with_snapshot=False):
    cloud = build_cloud(N_NODES, seed=SEED, calib=CALIB)
    tracer = obs.install_tracer(cloud.fabric) if traced else None
    image = make_image(CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=16)
    result = deploy(cloud, image, N_INSTANCES, approach)
    if with_snapshot:
        snapshot_all(cloud, result.vms, approach)
    fingerprint = {
        "now": cloud.env.now,
        "events": cloud.env.event_count,
        "traffic": dict(cloud.metrics.traffic),
        "boot_times": tuple(result.boot_times),
        "completion": result.completion_time,
    }
    return fingerprint, tracer


class TestBitIdentity:
    @pytest.mark.parametrize("approach", ["mirror", "qcow2-pvfs", "prepropagation"])
    def test_traced_deploy_matches_untraced(self, approach):
        plain, _ = run_cycle(approach, traced=False)
        traced, tracer = run_cycle(approach, traced=True)
        # exact equality on purpose: an enabled tracer must not move a
        # single event, which is what makes --trace safe on real figures
        assert traced == plain
        assert len(tracer.spans) > 0

    def test_traced_snapshot_cycle_matches_untraced(self):
        plain, _ = run_cycle("mirror", traced=False, with_snapshot=True)
        traced, tracer = run_cycle("mirror", traced=True, with_snapshot=True)
        assert traced == plain
        assert obs.snapshot_spans(tracer.spans)


class TestAcceptance:
    @pytest.fixture(scope="class")
    def traced_run(self):
        fingerprint, tracer = run_cycle("mirror", traced=True, with_snapshot=True)
        return fingerprint, tracer

    def test_no_spans_leak_open(self, traced_run):
        _, tracer = traced_run
        assert tracer.finish_open_spans() == 0

    def test_one_boot_root_per_instance(self, traced_run):
        _, tracer = traced_run
        roots = obs.boot_spans(tracer.spans)
        assert len(roots) == N_INSTANCES
        for root, boot_time in zip(roots, traced_run[0]["boot_times"]):
            assert root.duration == pytest.approx(boot_time)

    def test_boot_coverage_at_least_95_percent(self, traced_run):
        _, tracer = traced_run
        for root in obs.boot_spans(tracer.spans):
            assert obs.coverage(root, tracer.spans) >= 0.95, root.name

    def test_breakdown_sums_to_boot_time_within_1_percent(self, traced_run):
        _, tracer = traced_run
        for root in obs.boot_spans(tracer.spans):
            breakdown = obs.category_breakdown(root, tracer.spans)
            assert sum(breakdown.values()) == pytest.approx(
                root.duration, rel=0.01
            ), root.name
            # the breakdown must be explained by real categories
            assert "other" not in breakdown

    def test_snapshot_roots_cover_campaign(self, traced_run):
        _, tracer = traced_run
        snaps = obs.snapshot_spans(tracer.spans)
        assert len(snaps) == N_INSTANCES
        for root in snaps:
            breakdown = obs.category_breakdown(root, tracer.spans)
            assert sum(breakdown.values()) == pytest.approx(root.duration, rel=0.01)

    def test_trace_json_is_perfetto_loadable(self, traced_run, tmp_path):
        _, tracer = traced_run
        path = obs.write_trace_json(tmp_path / "fig.trace.json", tracer)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert {ev["ph"] for ev in events} <= {"M", "X"}
        complete = [ev for ev in events if ev["ph"] == "X"]
        assert len(complete) == len(tracer.spans)
        for ev in complete:
            assert ev["dur"] >= 0.0
            assert isinstance(ev["args"]["span_id"], int)

    def test_span_categories_are_specific(self, traced_run):
        _, tracer = traced_run
        cats = {s.category for s in tracer.spans}
        # the instrumented layers all show up in one deploy+snapshot cycle
        for expected in ("deploy", "vm", "cpu", "vfs", "rpc", "net", "snapshot"):
            assert expected in cats, expected


class TestFailedCampaign:
    def test_deploy_root_records_the_failure_when_it_happens(self):
        """A failing boot closes the campaign root with the error, at once.

        The only provider is down, there is one replica and no retry, so
        the first chunk fetch fails and takes its boot and the deploy with
        it. The ``deploy:mirror`` root must end at that instant, marked
        failed, not be left open for the end-of-run sweep to close clean.
        """
        cloud = build_cloud(N_NODES, seed=SEED, calib=CALIB, data_nodes=1)
        tracer = obs.install_tracer(cloud.fabric)
        image = make_image(CALIB.image.size, CALIB.image.boot_touched_bytes, n_regions=16)
        idents = seed_image(cloud, image)
        (provider,) = [cloud.fabric.hosts[name] for name in cloud.blobseer.data_services]
        provider.down = True
        try:
            with pytest.raises(ProviderUnavailableError):
                deploy(cloud, image, N_INSTANCES, "mirror", idents=idents)
        finally:
            provider.down = False
        failed_at = cloud.env.now
        (root,) = [s for s in tracer.spans if s.name == "deploy:mirror"]
        assert root.error is not None and "ProviderUnavailableError" in root.error
        assert root.t1 == failed_at
        failed_boots = [s for s in obs.boot_spans(tracer.spans) if s.error is not None]
        assert failed_boots and min(s.t1 for s in failed_boots) == failed_at
