"""Tests for the placement policy (provider manager)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blobseer.pmanager import STRATEGIES, PlacementPolicy
from repro.common.errors import StorageError

PROVIDERS = [f"p{i}" for i in range(6)]


class TestRoundRobin:
    def test_cycles_evenly(self):
        policy = PlacementPolicy(PROVIDERS, "round-robin")
        picks = [p[0] for p in policy.allocate(12, 100)]
        assert picks == PROVIDERS + PROVIDERS

    def test_replication_distinct_providers(self):
        policy = PlacementPolicy(PROVIDERS, "round-robin")
        for group in policy.allocate(10, 100, replication=3):
            assert len(set(group)) == 3

    def test_perfectly_balanced(self):
        policy = PlacementPolicy(PROVIDERS, "round-robin")
        policy.allocate(60, 100)
        assert set(policy.load_bytes.values()) == {1000}

    def test_excluded_provider_is_skipped(self):
        policy = PlacementPolicy(PROVIDERS, "round-robin")
        picks = [p[0] for p in policy.allocate(6, 100, exclude=("p2",))]
        assert picks == ["p0", "p1", "p3", "p4", "p5", "p0"]


class TestValidation:
    def test_empty_providers(self):
        with pytest.raises(StorageError):
            PlacementPolicy([], "round-robin")

    def test_unknown_strategy(self):
        for strategy in ("rendezvous", "random", "least-loaded"):
            with pytest.raises(StorageError):
                PlacementPolicy(PROVIDERS, strategy)

    def test_replication_exceeds_pool(self):
        policy = PlacementPolicy(PROVIDERS[:2], "round-robin")
        with pytest.raises(StorageError):
            policy.allocate(1, 100, replication=3)
        with pytest.raises(StorageError):
            policy.allocate(1, 100, replication=0)

    def test_replication_exceeds_live_pool(self):
        policy = PlacementPolicy(PROVIDERS[:3], "round-robin")
        with pytest.raises(StorageError):
            policy.allocate(1, 100, replication=2, exclude=("p0", "p1"))


# --------------------------------------------------------------------------- #
# property tests: the one allocation loop, both strategies
# --------------------------------------------------------------------------- #
@st.composite
def policy_and_calls(draw):
    """A policy's constructor arguments and a sequence of ``allocate`` calls."""
    n = draw(st.integers(1, 8))
    providers = [f"p{i}" for i in range(n)]
    strategy = draw(st.sampled_from(STRATEGIES))
    rack_of = {p: draw(st.integers(0, 3)) for p in providers}
    calls = []
    for _ in range(draw(st.integers(1, 5))):
        excluded = draw(st.lists(st.sampled_from(providers), unique=True, max_size=n - 1))
        replication = draw(st.integers(1, n - len(excluded)))
        n_chunks = draw(st.integers(0, 12))
        chunk_size = draw(st.integers(1, 4096))
        calls.append((n_chunks, chunk_size, replication, tuple(excluded)))
    return providers, strategy, rack_of, calls


def make_policy(providers, strategy, rack_of):
    return PlacementPolicy(providers, strategy, rack_of=rack_of)


@settings(max_examples=200, deadline=None)
@given(policy_and_calls())
def test_each_chunk_gets_distinct_live_replicas(case):
    providers, strategy, rack_of, calls = case
    policy = make_policy(providers, strategy, rack_of)
    for n_chunks, chunk_size, replication, excluded in calls:
        before = sum(policy.load_bytes.values())
        placements = policy.allocate(n_chunks, chunk_size, replication, exclude=excluded)
        assert len(placements) == n_chunks
        for group in placements:
            assert len(group) == replication
            assert len(set(group)) == replication
            assert not set(group) & set(excluded)
            assert set(group) <= set(providers)
        grown = sum(policy.load_bytes.values()) - before
        assert grown == n_chunks * replication * chunk_size


@settings(max_examples=200, deadline=None)
@given(policy_and_calls(), st.lists(st.sampled_from(["ghost", "p99", ""]), min_size=1))
def test_excluding_strangers_changes_nothing(case, strangers):
    """An ``exclude`` naming no provider of the policy equals ``exclude=()``."""
    providers, strategy, rack_of, calls = case
    plain = make_policy(providers, strategy, rack_of)
    odd = make_policy(providers, strategy, rack_of)
    for n_chunks, chunk_size, replication, _excluded in calls:
        assert odd.allocate(n_chunks, chunk_size, replication, exclude=strangers) == (
            plain.allocate(n_chunks, chunk_size, replication)
        )
        assert odd._cursor == plain._cursor
        assert odd.load_bytes == plain.load_bytes
