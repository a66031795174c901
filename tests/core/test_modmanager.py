"""Tests for the local modification manager (mirroring strategies §3.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import MirrorStateError
from repro.core.modmanager import ModificationManager

CS = 100  # chunk size for readability
IMG = 10 * CS


def mgr(size=IMG, cs=CS):
    return ModificationManager(size, cs)


class TestGeometry:
    def test_chunk_bounds(self):
        m = mgr()
        assert m.chunk_bounds(0) == (0, 100)
        assert m.chunk_bounds(9) == (900, 1000)

    def test_tail_chunk_clamped(self):
        m = ModificationManager(250, 100)
        assert m.n_chunks == 3
        assert m.chunk_bounds(2) == (200, 250)

    def test_chunks_overlapping(self):
        m = mgr()
        assert list(m.chunks_overlapping(150, 350)) == [1, 2, 3]
        assert list(m.chunks_overlapping(100, 200)) == [1]
        assert list(m.chunks_overlapping(5, 5)) == []

    def test_invalid_sizes(self):
        with pytest.raises(MirrorStateError):
            ModificationManager(0, 10)
        with pytest.raises(MirrorStateError):
            ModificationManager(10, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(MirrorStateError):
            mgr().plan_write(900, 1100)


class TestPlanRead:
    def test_fresh_image_fetches_cover(self):
        m = mgr()
        plan = m.plan_read(150, 350)
        assert plan.fetch_chunks == [1, 2, 3]
        assert plan.fill_gaps == {1: [(100, 200)], 2: [(200, 300)], 3: [(300, 400)]}
        assert not plan.is_local

    def test_fully_mirrored_is_local(self):
        m = mgr()
        for idx in (1, 2):
            m.record_fetch(idx)
        assert m.plan_read(150, 280).is_local

    def test_partially_mirrored_chunk_still_fetched(self):
        m = mgr()
        m.record_write(120, 150)  # part of chunk 1 dirty+mirrored
        plan = m.plan_read(100, 200)
        assert plan.fetch_chunks == [1]
        # gap excludes the dirty region: local writes must not be clobbered
        assert plan.fill_gaps == {1: [(100, 120), (150, 200)]}

    def test_read_within_written_region_local(self):
        m = mgr()
        m.record_write(120, 180)
        assert m.plan_read(130, 170).is_local

    def test_minimal_cover_only(self):
        m = mgr()
        m.record_fetch(2)
        plan = m.plan_read(150, 450)
        assert plan.fetch_chunks == [1, 3, 4]


class TestPlanWrite:
    def test_write_on_fresh_chunk_no_fill(self):
        m = mgr()
        assert m.plan_write(120, 150).gap_fills == []

    def test_second_write_with_gap_triggers_fill(self):
        m = mgr()
        m.record_write(110, 120)
        plan = m.plan_write(150, 160)
        assert plan.gap_fills == [(1, (120, 150))]

    def test_gap_before_mirrored_region(self):
        m = mgr()
        m.record_write(150, 160)
        plan = m.plan_write(110, 120)
        assert plan.gap_fills == [(1, (120, 150))]

    def test_adjacent_write_no_fill(self):
        m = mgr()
        m.record_write(110, 120)
        assert m.plan_write(120, 130).gap_fills == []
        assert m.plan_write(100, 110).gap_fills == []

    def test_overlapping_write_no_fill(self):
        m = mgr()
        m.record_write(110, 150)
        assert m.plan_write(120, 170).gap_fills == []

    def test_write_spanning_chunks(self):
        m = mgr()
        m.record_write(110, 120)
        m.record_write(250, 260)
        plan = m.plan_write(180, 220)
        # chunk 1: gap (120,180); chunk 2: gap (220,250)
        assert plan.gap_fills == [(1, (120, 180)), (2, (220, 250))]


class TestTransitions:
    def test_record_write_marks_dirty_and_mirrored(self):
        m = mgr()
        m.record_write(150, 350)
        assert sorted(m.to_state()["dirty"]) == [1, 2, 3]
        assert m.dirty_bytes() == 200
        assert m.is_mirrored(150, 350)
        assert not m.is_mirrored(100, 150)

    def test_record_fetch_not_dirty(self):
        m = mgr()
        m.record_fetch(4)
        assert m.to_state()["dirty"] == {}
        assert m.is_mirrored(400, 500)

    def test_clear_dirty(self):
        m = mgr()
        m.record_write(0, 50)
        m.clear_dirty()
        assert m.to_state()["dirty"] == {}
        assert m.is_mirrored(0, 50)  # still mirrored

    def test_strategy2_invariant_enforced(self):
        m = mgr()
        m.record_write(110, 120)
        # bypassing plan_write to create a fragmented chunk must be caught
        with pytest.raises(MirrorStateError):
            m.record_write(150, 160)

    def test_plan_complete_chunk(self):
        m = mgr()
        m.record_write(120, 150)
        assert m.plan_complete_chunk(1) == [(100, 120), (150, 200)]
        m.record_fetch(1)
        assert m.plan_complete_chunk(1) == []
        assert m.plan_complete_chunk(5) == [(500, 600)]

    def test_fill_outside_chunk_rejected(self):
        m = mgr()
        with pytest.raises(MirrorStateError):
            m.record_fill(1, 90, 120)

    def test_mirrored_bytes(self):
        m = mgr()
        m.record_fetch(0)
        m.record_write(150, 170)
        assert m.mirrored_bytes() == 120

    def test_chunk_index_outside_image_rejected(self):
        # a flat list would silently take -1 for the last chunk
        m = mgr()
        for call in (
            lambda: m.record_fetch(-1),
            lambda: m.record_fetch(10),
            lambda: m.record_fill(-1, 900, 910),
            lambda: m.plan_complete_chunk(10),
            lambda: m.mirrored_interval(-1),
            lambda: m.mirrored_intervals(10),
        ):
            with pytest.raises(MirrorStateError):
                call()
        assert m.mirrored_bytes() == 0

    def test_clear_dirty_hands_the_ranges_over(self):
        m = mgr()
        m.record_write(150, 250)
        taken = m.clear_dirty()
        assert {idx: list(s) for idx, s in taken.items()} == {1: [(150, 200)], 2: [(200, 250)]}
        assert m.to_state()["dirty"] == {} and m.dirty_bytes() == 0
        m.record_write(160, 170)  # dirtied after the hand-over: a fresh entry
        assert m.to_state()["dirty"] == {1: [(160, 170)]}
        m.restore_dirty(taken)
        assert m.to_state()["dirty"] == {1: [(150, 200)], 2: [(200, 250)]}


class TestFragmentedMirror:
    """Only the no-prefetch ablation (``enforce_contiguity=False``) gets here."""

    def frag(self):
        m = ModificationManager(IMG, CS, enforce_contiguity=False)
        m.record_fill(1, 100, 110)
        m.record_fill(1, 150, 160)
        return m

    def test_non_adjacent_fill_overflows_instead_of_widening(self):
        m = self.frag()
        assert m.mirrored_intervals(1) == [(100, 110), (150, 160)]
        assert m.mirrored_interval(1) == (100, 160)  # the hull, as ``span()`` was
        assert m.mirrored_bytes() == 20
        assert not m.is_mirrored(100, 160)
        assert m.is_mirrored(150, 160)
        assert m.plan_read(105, 155).fill_gaps == {1: [(110, 150), (160, 200)]}
        assert m.plan_read_exact(105, 155) == {1: [(110, 150)]}
        assert m.plan_complete_chunk(1) == [(110, 150), (160, 200)]
        assert m.plan_write(170, 180).gap_fills == [(1, (160, 170))]

    def test_heals_back_to_two_integers(self):
        m = self.frag()
        m.record_fill(1, 110, 150)
        assert m.mirrored_intervals(1) == [(100, 160)]
        assert not m._frag
        m = self.frag()
        m.record_fetch(1)
        assert m.mirrored_intervals(1) == [(100, 200)] and not m._frag

    def test_write_may_fragment_when_not_enforced(self):
        m = self.frag()
        m.record_write(180, 190)
        assert m.mirrored_intervals(1) == [(100, 110), (150, 160), (180, 190)]

    def test_state_round_trip_carries_the_flag(self):
        state = self.frag().to_state()
        assert state["mirrored"] == {1: [(100, 110), (150, 160)]}
        m2 = ModificationManager.from_state(state, enforce_contiguity=False)
        assert not m2.enforce_contiguity
        assert m2.to_state() == state
        with pytest.raises(MirrorStateError, match="strategy-2 invariant"):
            ModificationManager.from_state(state)

    def test_state_with_a_range_outside_its_chunk_rejected(self):
        state = mgr().to_state()
        state["mirrored"] = {2: [(150, 250)]}
        with pytest.raises(MirrorStateError):
            ModificationManager.from_state(state)


class TestPersistence:
    def test_roundtrip(self):
        m = mgr()
        m.record_fetch(0)
        m.record_write(150, 170)
        m.record_write(920, 1000)
        m2 = ModificationManager.from_state(m.to_state())
        assert m2.image_size == m.image_size
        assert m2.to_state()["dirty"] == m.to_state()["dirty"]
        assert m2.mirrored_bytes() == m.mirrored_bytes()
        assert m2.plan_read(150, 170).is_local
        assert not m2.plan_read(100, 200).is_local

    def test_state_is_json_like(self):
        import json

        m = mgr()
        m.record_write(0, 42)
        encoded = json.dumps(m.to_state())
        decoded = json.loads(encoded)
        # json stringifies int keys; from_state handles that
        m2 = ModificationManager.from_state(decoded)
        assert m2.dirty_bytes() == 42


# --------------------------------------------------------------------------- #
# property test: a faithful client using the plans keeps all invariants
# --------------------------------------------------------------------------- #
op = st.tuples(
    st.sampled_from(["read", "write"]),
    st.integers(0, IMG - 1),
    st.integers(1, 2 * CS),
)


@settings(max_examples=200)
@given(st.lists(op, max_size=30))
def test_protocol_preserves_invariants(ops):
    m = mgr()
    for kind, off, ln in ops:
        lo, hi = off, min(off + ln, IMG)
        if kind == "read":
            plan = m.plan_read(lo, hi)
            for idx in plan.fetch_chunks:
                m.record_fetch(idx)
            # after the fetches the read must be servable locally
            assert m.is_mirrored(lo, hi)
        else:
            plan = m.plan_write(lo, hi)
            for idx, (g_lo, g_hi) in plan.gap_fills:
                m.record_fill(idx, g_lo, g_hi)
            m.record_write(lo, hi)  # raises if strategy-2 invariant broke
    # global invariants
    for idx in range(m.n_chunks):
        span_lo, span_hi = m.mirrored_interval(idx)
        c_lo, c_hi = m.chunk_bounds(idx)
        assert c_lo <= span_lo <= span_hi <= c_hi or (span_lo, span_hi) == (0, 0)
    # dirty is a subset of mirrored
    for dirty in m.to_state()["dirty"].values():
        for d_lo, d_hi in dirty:
            assert m.is_mirrored(d_lo, d_hi)


@settings(max_examples=100)
@given(st.lists(op, max_size=20))
def test_persistence_roundtrip_property(ops):
    m = mgr()
    for kind, off, ln in ops:
        lo, hi = off, min(off + ln, IMG)
        if kind == "read":
            for idx in m.plan_read(lo, hi).fetch_chunks:
                m.record_fetch(idx)
        else:
            for idx, (g_lo, g_hi) in m.plan_write(lo, hi).gap_fills:
                m.record_fill(idx, g_lo, g_hi)
            m.record_write(lo, hi)
    m2 = ModificationManager.from_state(m.to_state())
    assert m2.to_state() == m.to_state()
