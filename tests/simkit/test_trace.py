"""Tests for the metrics sink and the one percentile rule."""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkit.trace import Metrics, nearest_rank

SUITE = Path(__file__).resolve().parents[2] / "benchmarks" / "suite"
if str(SUITE) not in sys.path:
    sys.path.insert(0, str(SUITE))

import workloads  # noqa: E402  (benchmarks/suite/workloads.py, read-only)


class TestMetrics:
    def test_traffic_accumulates_by_kind(self):
        m = Metrics()
        m.add_traffic(100, "bulk")
        m.add_traffic(50, "bulk")
        m.add_traffic(7, "rpc")
        assert m.traffic["bulk"] == 150
        assert m.total_traffic() == 157

    def test_samples_and_raw(self):
        m = Metrics()
        m.sample("boot", 3.0)
        m.sample("boot", 1.0)
        assert m.raw["boot"] == [3.0, 1.0]  # arrival order

    def test_counters(self):
        m = Metrics()
        m.count("rpc")
        m.count("rpc", 4)
        assert m.counters["rpc"] == 5


class TestNearestRank:
    def test_empty_sample_reads_zero(self):
        assert nearest_rank([], 0.5) == 0.0
        assert nearest_rank([], 0.99) == 0.0

    def test_single_sample_is_every_percentile(self):
        for q in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert nearest_rank([7.0], q) == 7.0

    def test_rank_rounds_half_up_not_ceil(self):
        values = list(range(1, 1361))
        # q * n = 1346.4: rounding picks the 1346th value, ceil the 1347th
        assert nearest_rank(values, 0.99) == 1346
        # q * n = 2.5 rounds half up (Python's round() would give 2)
        assert nearest_rank([1, 2, 3, 4, 5], 0.5) == 3

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=200),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_the_benchmark_suite(self, values, q):
        value, _beyond = workloads.nearest_rank(values, q)
        assert nearest_rank(sorted(values), q) == value
