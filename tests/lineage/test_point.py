"""The ``lineage`` runner point: metrics, merge effect, off-path identity."""

import pytest

from repro.runner import PointSpec, execute_point


def lineage_spec(depth=4, seed=3, **params):
    return PointSpec(
        kind="lineage", profile="lineage-smoke", approach="mirror",
        n=depth, seed=seed, params=tuple(sorted(params.items())),
    )


class TestExecutor:
    def test_metrics_conserve_and_scale_with_depth(self):
        res = execute_point(lineage_spec(depth=4))
        m = res.metrics
        assert m["chain_depth"] == 4
        assert m["restore_time"] > m["lookup_time"] > 0
        assert m["conserved"] == 1.0
        assert m["footprint_matches"] == 1.0
        assert m["dedup_exclusive"] + m["dedup_shared"] == m["dedup_live"]
        assert len(res.series["snapshot_durations"]) == 4

    def test_restore_time_does_not_grow_with_depth(self):
        shallow = execute_point(lineage_spec(depth=2)).metrics
        deep = execute_point(lineage_spec(depth=8)).metrics
        assert deep["restore_time"] == pytest.approx(
            shallow["restore_time"], rel=0, abs=1e-12)

    def test_merge_reclaims(self):
        res = execute_point(lineage_spec(depth=8, keep_every=2))
        assert res.metrics["versions_merged"] > 0
        assert res.metrics["gc_bytes_reclaimed"] > 0
        assert res.metrics["conserved"] == 1.0

    def test_deterministic(self):
        a = execute_point(lineage_spec(depth=5, keep_every=4))
        b = execute_point(lineage_spec(depth=5, keep_every=4))
        assert a.metrics == b.metrics
        assert a.series == b.series
        assert a.event_count == b.event_count


class TestOffPath:
    def test_lineage_run_leaves_other_kinds_untouched(self):
        """fig4-style points are bit-identical before/after a lineage run."""
        deploy = PointSpec(kind="deploy", profile="lineage-smoke",
                           approach="mirror", n=4, seed=1)
        before = execute_point(deploy)
        execute_point(lineage_spec(depth=5, keep_every=4))
        after = execute_point(deploy)
        assert before.metrics == after.metrics
        assert before.series == after.series
        assert before.event_count == after.event_count
