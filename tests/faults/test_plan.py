"""FaultPlan/FaultEvent: pure values, validation, generators, JSON."""

import pytest

from repro.faults import FaultEvent, FaultPlan


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(at=1.0, kind="meteor-strike", target="node000")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            FaultEvent(at=-0.5, kind="provider-crash", target="node000")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration must be >= 0"):
            FaultEvent(at=1.0, kind="provider-crash", target="n", duration=-1.0)

    def test_degradation_factor_below_one_rejected(self):
        with pytest.raises(ValueError, match="factor must be >= 1"):
            FaultEvent(at=1.0, kind="disk-stall", target="n", factor=0.5)


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            (
                FaultEvent(at=3.0, kind="provider-crash", target="b"),
                FaultEvent(at=1.0, kind="provider-crash", target="a"),
            )
        )
        assert [e.at for e in plan.events] == [1.0, 3.0]

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan().events == ()
        assert FaultPlan().describe() == "empty fault plan"

    def test_describe_mentions_permanence(self):
        plan = FaultPlan(
            (FaultEvent(at=2.0, kind="provider-crash", target="node003"),)
        )
        assert "permanent" in plan.describe()
        assert "node003" in plan.describe()

    def test_degradations_carry_their_factor(self):
        plan = FaultPlan.degradations(
            ["a", "b"], "nic-degrade", at=1.0, duration=4.0, factor=8.0
        )
        assert all(e.factor == 8.0 for e in plan.events)


class TestGenerators:
    TARGETS = tuple(f"node{i:03d}" for i in range(10))

    def test_staggered_is_deterministic(self):
        a = FaultPlan.staggered_crashes(self.TARGETS, 4, window=5.0)
        b = FaultPlan.staggered_crashes(self.TARGETS, 4, window=5.0)
        assert a == b

    def test_staggered_spreads_times_evenly(self):
        plan = FaultPlan.staggered_crashes(self.TARGETS, 4, window=5.0)
        assert [e.at for e in plan.events] == [1.0, 2.0, 3.0, 4.0]

    def test_staggered_skips_adjacent_victims_first(self):
        """Round-robin replica pairs (i, i+1) must not both die early."""
        plan = FaultPlan.staggered_crashes(self.TARGETS, 5, window=5.0)
        victims = [e.target for e in sorted(plan.events, key=lambda e: e.at)]
        assert victims == ["node000", "node002", "node004", "node006", "node008"]

    def test_staggered_mttr_sets_duration(self):
        plan = FaultPlan.staggered_crashes(self.TARGETS, 2, window=4.0, mttr=2.5)
        assert all(e.duration == 2.5 for e in plan.events)

    def test_too_many_crashes_rejected(self):
        with pytest.raises(ValueError, match="crashes > "):
            FaultPlan.staggered_crashes(self.TARGETS[:2], 3, window=5.0)

    def test_no_targets_rejected(self):
        with pytest.raises(ValueError, match="no targets"):
            FaultPlan.staggered_crashes([], 1, window=5.0)

