"""End-to-end resilience points: acceptance shape + bit-identical replay.

These run the registered ``resilience`` point kind through the same executor
(and sweep engine) the benchmarks use, at the micro profile: 6 pool nodes,
2 instances, ~9 simulated seconds of fault-free boot. Crashes at window=1.0
land squarely inside the boot phase.
"""

import pytest

from repro.runner import PointSpec, SweepRunner
from repro.runner.points import execute_point


def rspec(profile, replication, crashes, **extra):
    params = {
        "replication_factor": replication,
        "crashes": crashes,
        "window": 1.0,
        "rpc_timeout": 1.0,
    }
    params.update(extra)
    return PointSpec(
        kind="resilience", profile=profile, approach="mirror",
        n=2, seed=1, params=tuple(params.items()),
    )


def identical(a, b):
    assert a.spec == b.spec
    assert a.metrics == b.metrics
    assert a.series == b.series
    assert a.counters == b.counters
    assert a.event_count == b.event_count


class TestAcceptance:
    def test_replication_survives_crashes_that_kill_unreplicated(
        self, micro_profile
    ):
        """The PR's reason to exist: replication 2 completes a deployment
        that replication 1 cannot, under the same crash plan."""
        fragile = execute_point(rspec(micro_profile, 1, 2))
        replicated = execute_point(rspec(micro_profile, 2, 2))
        assert fragile.metrics["survival_rate"] < 1.0
        assert fragile.metrics["boots_failed"] > 0
        assert replicated.metrics["survival_rate"] == 1.0
        assert replicated.metrics["boots_failed"] == 0
        # resilience is not free: the survivors boot slower than fault-free
        clean = execute_point(rspec(micro_profile, 2, 0))
        assert clean.metrics["survival_rate"] == 1.0
        assert (
            replicated.metrics["completion_time"]
            > clean.metrics["completion_time"]
        )

    def test_crashes_beyond_spare_pool_rejected(self, micro_profile):
        from repro.runner import SweepError

        with pytest.raises(SweepError, match="spare"):
            SweepRunner(jobs=1).run([rspec(micro_profile, 1, 99)])


class TestDeterminism:
    def test_same_spec_bit_identical_across_runs(self, micro_profile):
        spec = rspec(micro_profile, 2, 2)
        identical(execute_point(spec), execute_point(spec))

    def test_parallel_bit_identical_to_sequential(self, micro_profile):
        """jobs=4 workers replay exactly the jobs=1 timelines, faults and all."""
        specs = [rspec(micro_profile, r, c, **kw)
                 for r, c, kw in ((1, 0, {}), (1, 2, {}), (2, 2, {}), (2, 2, {"mttr": 2.0}))]
        seq = SweepRunner(jobs=1).run(specs)
        par = SweepRunner(jobs=4).run(specs)
        for a, b in zip(seq, par):
            identical(a, b)

    def test_faults_leave_no_residue_in_the_worker(self, micro_profile):
        """A crashing point must not contaminate the next point's timeline
        in the same worker (crash marks live on the crashed point's hosts)."""
        crashy_then_clean = SweepRunner(jobs=1).run(
            [rspec(micro_profile, 1, 2), rspec(micro_profile, 1, 0)]
        )
        clean_alone = execute_point(rspec(micro_profile, 1, 0))
        identical(crashy_then_clean[1], clean_alone)
