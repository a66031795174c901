"""End-to-end churn runs: accounting, GC bounding, parallel determinism."""

from repro.runner import CHURN_SMOKE, PointSpec, SweepRunner, execute_point


def churn_spec(n=24, seed=5, **params):
    defaults = {"rate": 3.0, "n_tenants": 3, "mean_lifetime": 10.0,
                "min_lifetime": 3.0, "gc_interval": 20.0}
    defaults.update(params)
    return PointSpec(
        kind="churn", profile=CHURN_SMOKE, n=n, seed=seed,
        params=tuple(defaults.items()),
    )


class TestAccounting:
    def test_request_conservation(self):
        res = execute_point(churn_spec())
        m = res.metrics
        # every deploy either booted, was rejected, or was canceled in queue
        assert m["booted"] + m["rejected"] + m["canceled"] == 24
        assert m["completed"] == m["booted"]
        placements = res.series["placements"]
        assert len(placements) == 24
        assert sum(1 for p in placements if p == -1) == m["rejected"]
        assert sum(1 for p in placements if p == -2) == m["canceled"]
        assert all(p >= 0 for p in placements
                   if p not in (-1, -2))

    def test_snapshots_accounted(self):
        res = execute_point(churn_spec(snapshot_fraction=1.0))
        m = res.metrics
        # a snapshot is taken iff its instance was actually running
        assert m["snapshots_taken"] + m["snapshots_missed"] > 0
        assert m["snapshots_taken"] <= m["booted"]

    def test_rejections_under_tiny_queue(self):
        res = execute_point(churn_spec(max_queue=0, rate=8.0))
        assert res.metrics["rejected"] > 0
        assert res.metrics["rejection_rate"] > 0.0


class TestStorageHygiene:
    def test_gc_bounds_footprint_vs_ablation(self):
        with_gc = execute_point(churn_spec(n=30, snapshot_fraction=0.8))
        no_gc = execute_point(
            churn_spec(n=30, snapshot_fraction=0.8, gc_interval=0.0))
        assert with_gc.metrics["bytes_reclaimed"] > 0
        assert with_gc.metrics["gc_sweeps"] > 0
        assert no_gc.metrics["bytes_reclaimed"] == 0
        assert (with_gc.metrics["footprint_final"]
                < no_gc.metrics["footprint_final"])
        # without GC the repository only ever grows
        fp = no_gc.series["footprint_bytes"]
        assert all(b >= a for a, b in zip(fp, fp[1:]))

    def test_boot_slos_populated(self):
        m = execute_point(churn_spec()).metrics
        assert 0 < m["boot_p50_exact"] <= m["boot_p99_exact"]
        assert 0 < m["utilization"] <= 1.0
        assert m["makespan"] > 0


class TestDeterminism:
    def test_same_spec_identical_result(self):
        a, b = execute_point(churn_spec()), execute_point(churn_spec())
        assert a.metrics == b.metrics
        assert a.series == b.series
        assert a.event_count == b.event_count

    def test_parallel_bit_identical_to_sequential(self):
        specs = [churn_spec(seed=s, policy=p)
                 for s in (5, 6) for p in ("least-loaded", "locality")]
        seq = SweepRunner(jobs=1).run(specs)
        par = SweepRunner(jobs=4).run(specs)
        for a, b in zip(seq, par):
            assert a.spec == b.spec
            assert a.metrics == b.metrics
            assert a.series == b.series
            assert a.event_count == b.event_count

    def test_policy_changes_placements_not_trace(self):
        # locality reads the peer caches: with p2p on, it places elsewhere
        loc = execute_point(churn_spec(policy="locality", p2p=True))
        ll = execute_point(churn_spec(policy="least-loaded", p2p=True))
        assert loc.metrics["trace_crc"] == ll.metrics["trace_crc"]
        assert loc.series["placements"] != ll.series["placements"]


class TestOffPath:
    def test_churn_run_leaves_other_kinds_untouched(self):
        """fig4-style points are bit-identical before/after a churn run."""
        deploy = PointSpec(kind="deploy", profile=CHURN_SMOKE,
                           approach="mirror", n=4, seed=1)
        before = execute_point(deploy)
        execute_point(churn_spec())
        after = execute_point(deploy)
        assert before.metrics == after.metrics
        assert before.series == after.series
        assert before.event_count == after.event_count


class TestRestores:
    def test_retention_trades_restores_for_footprint(self):
        """Default retention: restores race GC — some come from retired
        lineage records, and any whose chunks were swept are missed."""
        res = execute_point(churn_spec(
            snapshot_fraction=1.0, restore_fraction=1.0,
        ))
        m = res.metrics
        assert m["restores_completed"] + m["restores_missed"] > 0
        assert m["restores_from_retired"] > 0

    def test_restore_fraction_off_path_identity(self):
        """Satellite: restore_fraction=0 leaves the trace bit-identical."""
        default = execute_point(churn_spec())
        explicit = execute_point(churn_spec(restore_fraction=0.0))
        assert default.metrics["trace_crc"] == explicit.metrics["trace_crc"]
        assert default.metrics == explicit.metrics
        assert default.series == explicit.series
        assert default.event_count == explicit.event_count
        assert default.metrics["restores_completed"] == 0

    def test_restore_arrivals_change_trace_but_stay_deterministic(self):
        on = execute_point(churn_spec(restore_fraction=1.0,
                                      snapshot_fraction=1.0))
        again = execute_point(churn_spec(restore_fraction=1.0,
                                         snapshot_fraction=1.0))
        off = execute_point(churn_spec(snapshot_fraction=1.0))
        assert on.metrics == again.metrics
        assert on.event_count == again.event_count
        assert on.metrics["trace_crc"] != off.metrics["trace_crc"]
