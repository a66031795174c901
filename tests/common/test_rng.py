"""Tests for deterministic RNG streams."""

from repro.common.rng import RngStreams


def test_same_seed_same_stream():
    a = RngStreams(7).get("boot", 3)
    b = RngStreams(7).get("boot", 3)
    assert list(a.integers(0, 1000, 16)) == list(b.integers(0, 1000, 16))


def test_different_names_independent():
    s = RngStreams(7)
    a = list(s.get("boot", 0).integers(0, 10**9, 8))
    b = list(s.get("boot", 1).integers(0, 10**9, 8))
    c = list(s.get("snapshot", 0).integers(0, 10**9, 8))
    assert a != b
    assert a != c


def test_stream_cached_not_restarted():
    s = RngStreams(7)
    first = s.get("x").integers(0, 10**9)
    second = s.get("x").integers(0, 10**9)
    # Two draws from the same cached generator advance its state.
    fresh = RngStreams(7).get("x")
    assert [first, second] == list(fresh.integers(0, 10**9, 2))


def test_string_hash_stable_across_instances():
    # Would fail if we relied on Python's salted str hash.
    a = RngStreams(0).get("stable-name").integers(0, 10**9)
    b = RngStreams(0).get("stable-name").integers(0, 10**9)
    assert a == b
