"""The flat chunk-state manager against its ``IntervalSet``-per-chunk reference.

One Hypothesis sequence of planned and unplanned reads, writes, fills,
fetches, dirty hand-overs and persistence round trips drives
:class:`repro.core.modmanager.ModificationManager` and
``tests/reference_modmanager.py`` side by side, with the strategy-2 invariant
enforced and not. After every step each plan, each query, the serialised
state and the instant (and text) of every ``MirrorStateError`` must be equal.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_modmanager import ReferenceModificationManager

from repro.common.errors import MirrorStateError
from repro.core.modmanager import ModificationManager

CS = 100
IMG = 9 * CS + 50  # ten chunks, the last one clamped to half size
N_CHUNKS = 10


def attempt(fn, *args):
    """``("ok", result)`` or the error, so raising is compared like a value."""
    try:
        return "ok", fn(*args)
    except MirrorStateError as exc:
        return "error", str(exc)


def as_lists(ranges_by_chunk):
    return {idx: list(ranges) for idx, ranges in ranges_by_chunk.items()}


class Pair:
    """The production manager and the reference, stepped together."""

    def __init__(self, enforce):
        self.enforce = enforce
        self.new = ModificationManager(IMG, CS, enforce_contiguity=enforce)
        self.ref = ReferenceModificationManager(IMG, CS, enforce_contiguity=enforce)
        self.taken = None  # (from new, from ref) while a hand-over is pending

    def both(self, method, *args):
        got = attempt(getattr(self.new, method), *args)
        want = attempt(getattr(self.ref, method), *args)
        assert got == want, (method, args)
        return got

    # -- steps ----------------------------------------------------------- #
    def read(self, lo, hi):
        status, plan = self.both("plan_read", lo, hi)
        if status == "ok":
            for idx in plan.fetch_chunks:
                for g_lo, g_hi in plan.fill_gaps[idx]:
                    self.both("record_fill", idx, g_lo, g_hi)
                self.both("record_fetch", idx)
            assert self.new.is_mirrored(lo, hi)

    def read_exact(self, lo, hi):
        status, gaps = self.both("plan_read_exact", lo, hi)
        if status == "ok":
            for idx, ranges in gaps.items():
                for g_lo, g_hi in ranges:
                    self.both("record_fill", idx, g_lo, g_hi)

    def write(self, lo, hi):
        status, plan = self.both("plan_write", lo, hi)
        if status == "ok":
            for idx, (g_lo, g_hi) in plan.gap_fills:
                self.both("record_fill", idx, g_lo, g_hi)
            self.both("record_write", lo, hi)

    def raw_write(self, lo, hi):
        self.both("record_write", lo, hi)  # no plan: may break the invariant

    def raw_fill(self, lo, hi):
        idx = min(lo // CS, N_CHUNKS - 1)
        self.both("record_fill", idx, lo, hi)  # may leave the chunk, or fragment it

    def fetch(self, lo, _hi):
        self.both("record_fetch", min(lo // CS, N_CHUNKS - 1))

    def take(self, _lo, _hi):
        if self.taken is None:
            self.taken = (self.new.clear_dirty(), self.ref.clear_dirty())
            assert as_lists(self.taken[0]) == as_lists(self.taken[1])
        else:
            self.new.restore_dirty(self.taken[0])
            self.ref.restore_dirty(self.taken[1])
            self.taken = None

    def roundtrip(self, _lo, _hi):
        state = self.new.to_state()
        assert state == self.ref.to_state()
        state = json.loads(json.dumps(state))  # the persisted form: string keys, lists
        got = attempt(ModificationManager.from_state, state, self.enforce)
        want = attempt(ReferenceModificationManager.from_state, state, self.enforce)
        assert got[0] == want[0]
        if got[0] == "ok":
            self.new, self.ref = got[1], want[1]
        else:
            assert got[1] == want[1]  # a fragmented state refused, in the same words

    # -- after every step ------------------------------------------------ #
    def compare(self, lo, hi):
        new, ref = self.new, self.ref
        for idx in range(N_CHUNKS):
            assert new.mirrored_interval(idx) == ref.mirrored_interval(idx)
            assert new.mirrored_intervals(idx) == ref.mirrored_intervals(idx)
            assert new.dirty_intervals(idx) == ref.dirty_intervals(idx)
            assert new.plan_complete_chunk(idx) == ref.plan_complete_chunk(idx)
            w_lo, w_hi = max(lo, idx * CS), min(hi, (idx + 1) * CS, IMG)
            if w_lo < w_hi:  # what the translator asks when fetched bytes arrive
                assert new.unmirrored(idx, w_lo, w_hi) == ref.unmirrored(idx, w_lo, w_hi)
        assert new.mirrored_bytes() == ref.mirrored_bytes()
        assert new.dirty_bytes() == ref.dirty_bytes()
        assert new.dirty_chunks() == ref.dirty_chunks()
        assert new.to_state() == ref.to_state()
        for method in ("is_mirrored", "plan_read", "plan_write", "plan_read_exact"):
            self.both(method, lo, hi)


STEPS = ("read", "read_exact", "write", "raw_write", "raw_fill", "fetch", "take", "roundtrip")

step = st.tuples(
    st.sampled_from(STEPS),
    st.integers(0, IMG + 20),  # a little past the image: both must refuse alike
    st.integers(0, 2 * CS + 30),
)


@settings(max_examples=400, deadline=None)
@given(st.booleans(), st.lists(step, max_size=40))
def test_flat_manager_equals_interval_set_reference(enforce, steps):
    pair = Pair(enforce)
    for name, lo, length in steps:
        getattr(pair, name)(lo, lo + length)
        pair.compare(lo, lo + length)


def test_transient_fragmentation_is_refused_by_the_next_write():
    """A non-adjacent fill overflows silently; the next write's check raises."""
    pair = Pair(enforce=True)
    pair.raw_fill(10, 20)
    pair.raw_fill(40, 50)
    assert pair.new.mirrored_intervals(0) == [(10, 20), (40, 50)]
    assert pair.new.mirrored_interval(0) == (10, 50)
    assert pair.both("record_write", 70, 80)[0] == "error"
    pair.compare(0, IMG)
    assert pair.both("plan_read", IMG - 10, IMG + 1)[0] == "error"
