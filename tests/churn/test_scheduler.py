"""Placement policies and bounded-queue admission control (pure unit)."""

import pytest

from repro.churn import DeployRequest, LocalityMap, Scheduler


def req(rid=0, tenant=0, at=0.0):
    return DeployRequest(req_id=rid, at=at, tenant=tenant)


class TestPolicies:
    def test_least_loaded_spreads(self):
        s = Scheduler(3, policy="least-loaded", slots_per_node=2, max_queue=0)
        placed = [s.submit(req(i))[1] for i in range(6)]
        assert placed == [0, 1, 2, 0, 1, 2]

    def test_locality_prefers_cached_node(self):
        caches = {"n0": set(), "n1": {10, 11}, "n2": set()}
        loc = LocalityMap(["n0", "n1", "n2"], caches=caches,
                          tenant_keys={0: frozenset({10, 11, 12})})
        s = Scheduler(3, policy="locality", slots_per_node=1, max_queue=0,
                      locality=loc)
        state, node = s.submit(req(0, tenant=0))
        assert (state, node) == ("placed", 1)  # 2 cached chunks beat index 0

    def test_locality_affinity_fallback_without_p2p(self):
        loc = LocalityMap(["n0", "n1"], caches=None)
        loc.note_hosted(1, tenant=0)
        s = Scheduler(2, policy="locality", slots_per_node=2, max_queue=0,
                      locality=loc)
        assert s.submit(req(0, tenant=0)) == ("placed", 1)
        assert s.submit(req(1, tenant=1))[1] == 0  # no affinity: least loaded

    def test_locality_without_map_degrades_to_least_loaded(self):
        s = Scheduler(2, policy="locality", slots_per_node=2, max_queue=0)
        assert [s.submit(req(i))[1] for i in range(4)] == [0, 1, 0, 1]


class TestAdmission:
    def test_queue_then_reject(self):
        s = Scheduler(1, policy="least-loaded", slots_per_node=1, max_queue=2)
        assert s.submit(req(0)) == ("placed", 0)
        assert s.submit(req(1)) == ("queued", None)
        assert s.submit(req(2)) == ("queued", None)
        assert s.submit(req(3)) == ("rejected", None)
        assert s.rejected == 1
        assert s.admitted == 3
        assert s.busy_slots == 1 and s.total_slots == 1

    def test_release_drains_fifo(self):
        s = Scheduler(1, policy="least-loaded", slots_per_node=1, max_queue=4)
        s.submit(req(0))
        s.submit(req(1))
        s.submit(req(2))
        placed = s.release(0)
        assert [(r.req_id, node) for r, node in placed] == [(1, 0)]
        assert [r.req_id for r in s.queue] == [2]

    def test_fifo_no_overtaking_while_queued(self):
        # capacity exists only via release(), which drains the queue first,
        # so a fresh submit may never overtake a waiting request
        s = Scheduler(2, policy="least-loaded", slots_per_node=1, max_queue=4)
        s.submit(req(0))
        s.submit(req(1))
        s.submit(req(2))  # queued
        assert s.submit(req(3)) == ("queued", None)
        drained = s.release(0)
        assert [r.req_id for r, _ in drained] == [2]

    def test_cancel_queued_request(self):
        s = Scheduler(1, policy="least-loaded", slots_per_node=1, max_queue=4)
        s.submit(req(0))
        s.submit(req(1))
        assert s.cancel(1) is True
        assert s.cancel(99) is False
        assert not s.queue

    def test_release_idle_node_raises(self):
        s = Scheduler(2, policy="least-loaded", slots_per_node=1, max_queue=0)
        with pytest.raises(ValueError, match="release on idle node"):
            s.release(1)

    def test_zero_queue_rejects_at_capacity(self):
        s = Scheduler(1, policy="least-loaded", slots_per_node=1, max_queue=0)
        s.submit(req(0))
        assert s.submit(req(1)) == ("rejected", None)
