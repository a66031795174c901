"""Trace generation: determinism, arrival shapes, lifecycle ordering."""

import numpy as np
import pytest

from repro.churn import (
    ChurnSpec,
    DeployRequest,
    SnapshotRequest,
    TeardownRequest,
    generate_trace,
    trace_crc,
)


def rng(seed=1):
    return np.random.default_rng(seed)


class TestSpecValidation:
    def test_unknown_arrival_kind(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            ChurnSpec(arrivals="lunar").validate()

    @pytest.mark.parametrize("kw", [
        {"n_deploys": 0}, {"rate": 0.0}, {"n_tenants": 0},
        {"rate": -1.0}, {"max_queue": -1},
    ])
    def test_positive_counts_required(self, kw):
        with pytest.raises(ValueError):
            ChurnSpec(**kw).validate()

    def test_unknown_policy_rejected_by_scheduler(self):
        from repro.churn import Scheduler
        with pytest.raises(ValueError, match="unknown placement policy"):
            Scheduler(4, policy="tetris", slots_per_node=1, max_queue=0)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["poisson"])
    def test_same_seed_identical_trace(self, kind):
        spec = ChurnSpec(n_deploys=50, arrivals=kind)
        a = generate_trace(spec, rng(7))
        b = generate_trace(spec, rng(7))
        assert a == b
        assert trace_crc(a) == trace_crc(b)

    def test_different_seeds_differ(self):
        spec = ChurnSpec(n_deploys=50)
        assert trace_crc(generate_trace(spec, rng(1))) != trace_crc(
            generate_trace(spec, rng(2))
        )


class TestShapes:
    @pytest.mark.parametrize("kind", ["poisson"])
    def test_deploy_count_and_tenant_range(self, kind):
        spec = ChurnSpec(n_deploys=40, arrivals=kind, n_tenants=3)
        trace = generate_trace(spec, rng())
        deploys = [r for r in trace if isinstance(r, DeployRequest)]
        assert len(deploys) == 40
        assert all(0 <= d.tenant < 3 for d in deploys)
        assert all(b.at >= a.at for a, b in zip(trace, trace[1:]))

    def test_snapshot_fraction_extremes(self):
        none = generate_trace(
            ChurnSpec(n_deploys=30, snapshot_fraction=0.0), rng())
        assert not any(isinstance(r, SnapshotRequest) for r in none)
        every = generate_trace(
            ChurnSpec(n_deploys=30, snapshot_fraction=1.0), rng())
        assert sum(isinstance(r, SnapshotRequest) for r in every) == 30


class TestLifecycleOrdering:
    def test_snapshot_between_deploy_and_teardown(self):
        spec = ChurnSpec(n_deploys=60, snapshot_fraction=0.7, min_lifetime=2.0)
        trace = generate_trace(spec, rng(3))
        deploys = {r.req_id: r for r in trace if isinstance(r, DeployRequest)}
        downs = {r.target: r for r in trace if isinstance(r, TeardownRequest)}
        assert set(downs) == set(deploys)  # every instance is torn down
        for r in trace:
            if isinstance(r, SnapshotRequest):
                assert deploys[r.target].at < r.at < downs[r.target].at
                assert r.tenant == deploys[r.target].tenant

    def test_lifetimes_respect_minimum(self):
        spec = ChurnSpec(n_deploys=40, min_lifetime=5.0, mean_lifetime=1.0)
        trace = generate_trace(spec, rng())
        deploys = {r.req_id: r for r in trace if isinstance(r, DeployRequest)}
        for r in trace:
            if isinstance(r, TeardownRequest):
                assert r.at - deploys[r.target].at >= 5.0
