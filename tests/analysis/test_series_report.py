"""Tests for the analysis helpers (series, speedups, reports)."""

import pytest

from repro.analysis import (
    Figure,
    Series,
    check_shape,
    from_points,
    render_bars,
    render_figure,
    speedup,
)


class TestSeries:
    def test_add_and_at(self):
        s = Series("x")
        s.add(1, 10.0)
        s.add(20, 30.0)
        assert s.at(1) == 10.0
        assert s.at(20) == 30.0
        assert s.x == [1.0, 20.0]

    def test_at_missing_raises(self):
        s = Series("x")
        s.add(1, 10.0)
        with pytest.raises(KeyError):
            s.at(2)

    def test_last_and_max(self):
        s = Series("x")
        for i, v in enumerate([5.0, 9.0, 7.0]):
            s.add(i, v)
        assert s.last() == 7.0
        assert s.max() == 9.0

    def test_monotonicity(self):
        up = Series("up")
        for i in range(5):
            up.add(i, float(i))
        assert up.is_monotonic_nondecreasing()
        down = Series("down")
        down.add(0, 2.0)
        down.add(1, 1.0)
        assert not down.is_monotonic_nondecreasing()
        assert down.is_monotonic_nondecreasing(tolerance=1.5)


class TestSeriesAtTolerance:
    def _series(self):
        s = Series("s")
        s.add(1.0, 10.0)
        s.add(2.0, 20.0)
        return s

    def test_zero_tol_keeps_strict_lookup(self):
        with pytest.raises(KeyError):
            self._series().at(2.0000001)

    def test_empty_series_raises(self):
        with pytest.raises(KeyError):
            Series("empty").at(1.0)


class _FakePoint:
    """Shape-compatible stand-in for a runner PointResult."""

    def __init__(self, n, metrics=None, **attrs):
        self.spec = type("Spec", (), {"n": n})()
        self.metrics = metrics or {}
        for name, value in attrs.items():
            setattr(self, name, value)


class TestFromPoints:
    def test_metric_name_from_metrics_dict(self):
        points = [_FakePoint(1, {"avg_boot_time": 2.0}),
                  _FakePoint(10, {"avg_boot_time": 3.0})]
        s = from_points(points, "avg_boot_time", "boot")
        assert s.name == "boot"
        assert s.x == [1.0, 10.0]
        assert s.y == [2.0, 3.0]

    def test_metric_attribute_fallback(self):
        points = [_FakePoint(1, completion_time=5.0)]
        s = from_points(points, "completion_time", "done")
        assert s.y == [5.0]

    def test_metric_callable(self):
        points = [_FakePoint(2, {"total_traffic": 100.0})]
        s = from_points(points, lambda p: p.metrics["total_traffic"] / 2, "half")
        assert s.y == [50.0]

    def test_custom_x_extractor(self):
        points = [_FakePoint(1, {"m": 7.0}, seed=4)]
        s = from_points(points, "m", "by-seed", x=lambda p: p.seed)
        assert s.x == [4.0]

    def test_real_point_result(self):
        from repro.runner import QUICK, PointResult, PointSpec

        spec = PointSpec(kind="deploy", profile=QUICK, approach="mirror", n=5)
        point = PointResult(spec=spec, metrics={"avg_boot_time": 1.5},
                            series={"boot_times": (1.5,)}, counters={},
                            event_count=1, wall_s=0.0)
        s = from_points([point], "avg_boot_time", "boot")
        assert s.x == [5.0] and s.y == [1.5]


class TestSpeedup:
    def test_pointwise_ratio(self):
        base = Series("base")
        ours = Series("ours")
        for n in (1, 10, 100):
            base.add(n, 100.0)
            ours.add(n, n * 1.0)
        sp = speedup(base, ours)
        assert sp.at(1) == 100.0
        assert sp.at(100) == 1.0

    def test_common_x_only(self):
        base = Series("base")
        ours = Series("ours")
        base.add(1, 10.0)
        base.add(2, 20.0)
        ours.add(2, 5.0)
        sp = speedup(base, ours)
        assert sp.x == [2.0]
        assert sp.y == [4.0]

    def test_custom_name(self):
        sp = speedup(Series("b"), Series("o"), "my-speedup")
        assert sp.name == "my-speedup"


class TestRenderFigure:
    def _figure(self):
        fig = Figure("fig9", "Fake", "instances", "seconds")
        a = Series("alpha")
        b = Series("beta")
        a.add(1, 1.5)
        a.add(10, 2.5)
        b.add(10, 4.0)
        fig.add_series(a)
        fig.add_series(b)
        return fig

    def test_contains_all_points(self):
        text = render_figure(self._figure())
        assert "fig9" in text
        assert "alpha" in text and "beta" in text
        assert "1.50" in text and "2.50" in text and "4.00" in text

    def test_missing_points_dashed(self):
        text = render_figure(self._figure())
        row1 = next(line for line in text.splitlines() if line.startswith("1 "))
        assert "-" in row1  # beta has no x=1 point

    def test_render_bars(self):
        text = render_bars(
            "title", ["A", "B"], {"g1": [1.0, 2.0], "g2": [3.0, 4.0]}
        )
        assert "title" in text
        for token in ("A", "B", "g1", "g2", "1.0", "4.0"):
            assert token in text


class TestCheckShape:
    def test_pass_fail(self):
        assert check_shape("ok", True) == "[PASS] ok"
        assert check_shape("bad", False) == "[FAIL] bad"
