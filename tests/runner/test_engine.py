"""The sweep engine: parallel == sequential, ordering, crash surfacing."""

import pytest

from repro.common.errors import SimulationError
from repro.runner import PointSpec, ResultCache, SweepError, SweepRunner, execute_point


def _specs(counts=(1, 2), kind="deploy", approach="mirror"):
    return [
        PointSpec(kind=kind, profile="micro-test", approach=approach, n=n, seed=1)
        for n in counts
    ]


class TestEquivalence:
    def test_parallel_bit_identical_to_sequential(self, micro_profile):
        specs = _specs(counts=(1, 2, 1, 2)) + [
            PointSpec(kind="lineage", profile="lineage-smoke", approach="mirror", n=3, seed=1,
                      params=(("compact", True), ("policy", "merge"), ("depth_bound", 2))),
            PointSpec(kind="deploy", profile="topo-smoke", approach="mirror", n=8, seed=1,
                      params=(("p2p", True), ("racks", 4), ("locality", True))),
            # a racked, replicated multisnapshot burst is one spec
            PointSpec(kind="snapshot", profile="topo-smoke", approach="mirror", n=8, seed=1,
                      params=(("racks", 4), ("replication", 2), ("p2p", False))),
        ]
        seq = SweepRunner(jobs=1, cache=None).run(specs)
        par = SweepRunner(jobs=4, cache=None).run(specs)
        assert len(seq) == len(par) == len(specs)
        for a, b in zip(seq, par):
            assert a.spec == b.spec
            assert a.metrics == b.metrics
            assert a.series == b.series
            assert a.counters == b.counters
            assert a.event_count == b.event_count
        assert seq[-1].metrics["cross_rack_bytes"] > 0

    def test_results_follow_input_order(self, micro_profile):
        specs = _specs(counts=(2, 1))
        out = SweepRunner(jobs=4, cache=None).run(specs)
        assert [r.spec.n for r in out] == [2, 1]

    def test_snapshot_kind_through_pool(self, micro_profile):
        specs = _specs(counts=(2,), kind="snapshot")
        seq = SweepRunner(jobs=1, cache=None).run(specs)
        par = SweepRunner(jobs=2, cache=None).run(specs)
        assert seq[0].metrics == par[0].metrics
        assert len(seq[0].per_instance) == 2


class TestFailureSurfacing:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_point_error_names_the_spec(self, micro_profile, jobs):
        bad = _specs(counts=(1,), approach="bogus")
        with pytest.raises(SweepError) as err:
            SweepRunner(jobs=jobs, cache=None).run(bad)
        message = str(err.value)
        assert "bogus" in message and "micro-test" in message
        assert err.value.spec == bad[0]

    def test_unknown_kind_raises(self, micro_profile):
        with pytest.raises(SweepError, match="unknown point kind"):
            SweepRunner(jobs=1, cache=None).run(
                [PointSpec(kind="nope", profile="micro-test")]
            )

    def test_failed_point_not_cached(self, micro_profile, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(SweepError):
            SweepRunner(jobs=1, cache=cache).run(_specs(counts=(1,), approach="bogus"))
        assert len(cache) == 0


class TestCloudParams:
    """Every kind reads one table of cloud params; nothing else gets through."""

    def test_misspelt_param_is_rejected_before_the_build(self, micro_profile):
        spec = PointSpec(kind="deploy", profile="micro-test", approach="mirror", n=1,
                         params=(("replicaton", 2),))
        with pytest.raises(SimulationError) as err:
            execute_point(spec)
        message = str(err.value)
        assert "replicaton" in message and "micro-test" in message
        # the names the kind accepts: its own and the shared cloud params
        assert "mirror_prefetch" in message and "replication" in message

    def test_workload_params_belong_to_their_kind(self, micro_profile):
        spec = PointSpec(kind="deploy", profile="micro-test", approach="mirror", n=1,
                         params=(("crashes", 2),))
        with pytest.raises(SimulationError, match="crashes"):
            execute_point(spec)

    def test_deploy_runs_the_peer_exchange(self):
        def spec(**params):
            return PointSpec(kind="deploy", profile="topo-smoke", approach="mirror",
                             n=8, seed=1, params=params)

        off = execute_point(spec())
        on = execute_point(spec(p2p=True))
        assert off.metrics["peer_hit_ratio"] == 0.0
        assert on.metrics["peer_hit_ratio"] > 0.0
        assert on.metrics["provider_bytes"] < off.metrics["provider_bytes"]


class TestConfiguration:
    def test_default_jobs_is_cpu_count(self):
        import os

        assert SweepRunner().jobs == (os.cpu_count() or 1)

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=-1)

    def test_stats_track_execution(self, micro_profile):
        runner = SweepRunner(jobs=1, cache=None)
        runner.run(_specs())
        assert runner.stats.points == 2
        assert runner.stats.executed == 2
        assert runner.stats.cached == 0
        assert runner.stats.wall_s > 0
        assert runner.stats.points_per_s > 0

    def test_empty_sweep(self, micro_profile):
        assert SweepRunner(jobs=4, cache=None).run([]) == []

    def test_run_iter_streams_in_order(self, micro_profile):
        runner = SweepRunner(jobs=4, cache=None)
        seen = [r.spec.n for r in runner.run_iter(_specs(counts=(1, 2, 1)))]
        assert seen == [1, 2, 1]
