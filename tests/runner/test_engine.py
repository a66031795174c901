"""The sweep engine: parallel == sequential, ordering, crash surfacing."""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.common.errors import SimulationError
from repro.runner import PointSpec, SweepError, SweepRunner, execute_point
from repro.runner.profiles import LINEAGE_SMOKE, NVME, TOPO_SMOKE


def _specs(profile, counts=(1, 2), kind="deploy", approach="mirror"):
    return [
        PointSpec(kind=kind, profile=profile, approach=approach, n=n, seed=1)
        for n in counts
    ]


class TestEquivalence:
    def test_parallel_bit_identical_to_sequential(self, micro_profile):
        specs = _specs(micro_profile, counts=(1, 2, 1, 2)) + [
            PointSpec(kind="lineage", profile=LINEAGE_SMOKE, approach="mirror", n=3, seed=1,
                      params=(("keep_every", 2),)),
            PointSpec(kind="deploy", profile=TOPO_SMOKE, approach="mirror", n=8, seed=1,
                      params=(("p2p", True), ("racks", 4), ("topo_aware", True))),
            # a racked, replicated multisnapshot burst is one spec
            PointSpec(kind="snapshot", profile=TOPO_SMOKE, approach="mirror", n=8, seed=1,
                      params=(("racks", 4), ("replication_factor", 2), ("p2p", False))),
        ]
        seq = SweepRunner(jobs=1).run(specs)
        par = SweepRunner(jobs=4).run(specs)
        assert len(seq) == len(par) == len(specs)
        for a, b in zip(seq, par):
            assert a.spec == b.spec
            assert a.metrics == b.metrics
            assert a.series == b.series
            assert a.counters == b.counters
            assert a.event_count == b.event_count
        assert seq[-1].metrics["cross_rack_bytes"] > 0

    def test_results_follow_input_order(self, micro_profile):
        specs = _specs(micro_profile, counts=(2, 1))
        out = SweepRunner(jobs=4).run(specs)
        assert [r.spec.n for r in out] == [2, 1]

    def test_snapshot_kind_through_pool(self, micro_profile):
        specs = _specs(micro_profile, counts=(2,), kind="snapshot")
        seq = SweepRunner(jobs=1).run(specs)
        par = SweepRunner(jobs=2).run(specs)
        assert seq[0].metrics == par[0].metrics
        assert len(seq[0].per_instance) == 2


class TestFailureSurfacing:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_point_error_names_the_spec(self, micro_profile, jobs):
        bad = _specs(micro_profile, counts=(1,), approach="bogus")
        with pytest.raises(SweepError) as err:
            SweepRunner(jobs=jobs).run(bad)
        message = str(err.value)
        assert "bogus" in message and "micro-test" in message
        assert err.value.spec == bad[0]

    def test_unknown_kind_raises(self, micro_profile):
        with pytest.raises(SweepError, match="unknown point kind"):
            SweepRunner(jobs=1).run(
                [PointSpec(kind="nope", profile=micro_profile)]
            )


class TestCloudParams:
    """Every kind reads one table of cloud params; nothing else gets through."""

    def test_misspelt_param_is_rejected_before_the_build(self, micro_profile):
        spec = PointSpec(kind="deploy", profile=micro_profile, approach="mirror", n=1,
                         params=(("replicaton_factor", 2),))
        with pytest.raises(SimulationError) as err:
            execute_point(spec)
        message = str(err.value)
        assert "replicaton_factor" in message and "micro-test" in message
        # the names the kind accepts: its own and the shared cloud params
        assert "mirror_prefetch" in message and "replication_factor" in message

    def test_workload_params_belong_to_their_kind(self, micro_profile):
        spec = PointSpec(kind="deploy", profile=micro_profile, approach="mirror", n=1,
                         params=(("crashes", 2),))
        with pytest.raises(SimulationError, match="crashes"):
            execute_point(spec)

    def test_deploy_runs_the_peer_exchange(self):
        def spec(**params):
            return PointSpec(kind="deploy", profile=TOPO_SMOKE, approach="mirror",
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
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            SweepRunner(jobs=0)

    def test_empty_sweep(self, micro_profile):
        assert SweepRunner(jobs=4).run([]) == []


class TestSelfContainedSpec:
    """A spec carries its profile and calibration: any process can run it."""

    #: unpickle a spec from stdin, run it, pickle what the timeline decides
    CHILD = (
        "import pickle, sys\n"
        "from repro.runner import execute_point\n"
        "r = execute_point(pickle.load(sys.stdin.buffer))\n"
        "pickle.dump((r.metrics, r.event_count), sys.stdout.buffer)\n"
    )

    def test_fresh_interpreter_runs_an_ad_hoc_profile(self, micro_profile):
        ad_hoc = dataclasses.replace(
            micro_profile, name="ad-hoc",
            calib=dataclasses.replace(micro_profile.calib, testbed=NVME),
        )
        spec = PointSpec(kind="deploy", profile=ad_hoc, approach="mirror", n=2, seed=3)
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        child = subprocess.run(
            [sys.executable, "-c", self.CHILD], input=pickle.dumps(spec),
            capture_output=True, env=env, timeout=120,
        )
        assert child.returncode == 0, child.stderr.decode()
        metrics, event_count = pickle.loads(child.stdout)
        local = execute_point(spec)
        assert metrics == local.metrics
        assert event_count == local.event_count
        # the NVMe disks moved the timeline: the calibration travelled
        assert metrics != execute_point(dataclasses.replace(spec, profile=micro_profile)).metrics

    def test_a_profile_name_is_no_profile(self):
        with pytest.raises(TypeError, match="BenchProfile"):
            PointSpec(kind="deploy", profile="quick")
