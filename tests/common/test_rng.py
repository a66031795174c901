"""Tests for deterministic RNG streams."""

import pytest

from repro.common.errors import SimulationError
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


def test_a_stream_name_is_drawn_once():
    # Handing the name out again would restart its sequence (or, cached,
    # keep every generator alive for the run): a second draw is an error.
    s = RngStreams(7)
    s.get("x", 1)
    s.get("x", 2)
    with pytest.raises(SimulationError, match="drawn twice"):
        s.get("x", 1)


def test_string_hash_stable_across_instances():
    # Would fail if we relied on Python's salted str hash.
    a = RngStreams(0).get("stable-name").integers(0, 10**9)
    b = RngStreams(0).get("stable-name").integers(0, 10**9)
    assert a == b
