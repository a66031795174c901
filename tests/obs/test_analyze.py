"""Deepest-cover attribution, critical path, and coverage on synthetic trees."""

import pytest

from repro.obs.analyze import (
    attribute,
    boot_spans,
    category_breakdown,
    coverage,
    render_breakdown_table,
    render_critical_path,
    snapshot_spans,
)
from repro.obs.span import Tracer


class StubEnv:
    def __init__(self):
        self.now = 0.0
        self._active_process = None


def build(spec):
    """Build spans from (name, category, t0, t1, parent_name) tuples."""
    env = StubEnv()
    tr = Tracer(env)
    by_name = {}
    for name, cat, t0, t1, parent in spec:
        env.now = t0
        span = tr.start(name, cat, parent=by_name.get(parent))
        env.now = t1
        span.finish()
        by_name[name] = span
    return tr, by_name


class TestAttribute:
    def test_partition_is_exact(self):
        tr, s = build(
            [
                ("root", "vm", 0.0, 10.0, None),
                ("a", "cpu", 1.0, 4.0, "root"),
                ("b", "net", 6.0, 9.0, "root"),
            ]
        )
        segs = attribute(s["root"], tr.spans)
        assert segs[0].t0 == 0.0 and segs[-1].t1 == 10.0
        # contiguous: each segment starts where the previous ended
        for prev, nxt in zip(segs, segs[1:]):
            assert prev.t1 == nxt.t0
        assert sum(g.duration for g in segs) == pytest.approx(10.0)
        named = [(g.span.name, g.t0, g.t1) for g in segs]
        assert named == [
            ("root", 0.0, 1.0),
            ("a", 1.0, 4.0),
            ("root", 4.0, 6.0),
            ("b", 6.0, 9.0),
            ("root", 9.0, 10.0),
        ]

    def test_deepest_span_wins(self):
        tr, s = build(
            [
                ("root", "vm", 0.0, 10.0, None),
                ("outer", "vfs", 0.0, 10.0, "root"),
                ("inner", "net", 3.0, 7.0, "outer"),
            ]
        )
        segs = attribute(s["root"], tr.spans)
        assert [(g.span.name, g.t0, g.t1) for g in segs] == [
            ("outer", 0.0, 3.0),
            ("inner", 3.0, 7.0),
            ("outer", 7.0, 10.0),
        ]

    def test_equal_depth_tie_goes_to_later_start(self):
        tr, s = build(
            [
                ("root", "vm", 0.0, 10.0, None),
                ("early", "cpu", 0.0, 8.0, "root"),
                ("late", "net", 4.0, 10.0, "root"),
            ]
        )
        segs = attribute(s["root"], tr.spans)
        assert [(g.span.name, g.t0, g.t1) for g in segs] == [
            ("early", 0.0, 4.0),
            ("late", 4.0, 10.0),
        ]

    def test_child_clipped_to_root_interval(self):
        tr, s = build(
            [
                ("root", "vm", 2.0, 8.0, None),
                ("wide", "net", 0.0, 10.0, "root"),
            ]
        )
        segs = attribute(s["root"], tr.spans)
        assert [(g.span.name, g.t0, g.t1) for g in segs] == [("wide", 2.0, 8.0)]

    def test_zero_length_root_yields_nothing(self):
        tr, s = build([("root", "vm", 5.0, 5.0, None)])
        assert attribute(s["root"], tr.spans) == []

    def test_foreign_trees_are_ignored(self):
        tr, s = build(
            [
                ("root", "vm", 0.0, 4.0, None),
                ("other-root", "vm", 0.0, 4.0, None),
                ("other-child", "net", 1.0, 3.0, "other-root"),
            ]
        )
        segs = attribute(s["root"], tr.spans)
        assert all(g.span.name == "root" for g in segs)


class TestBreakdownAndCoverage:
    def test_breakdown_sums_to_root_duration(self):
        tr, s = build(
            [
                ("root", "vm", 0.0, 10.0, None),
                ("a", "cpu", 0.0, 3.0, "root"),
                ("b", "net", 3.0, 7.0, "root"),
                ("c", "cpu", 8.0, 10.0, "root"),
            ]
        )
        b = category_breakdown(s["root"], tr.spans)
        assert b == {"cpu": 5.0, "net": 4.0, "vm": 1.0}
        assert sum(b.values()) == pytest.approx(s["root"].duration)

    def test_coverage_excludes_root_and_other(self):
        tr, s = build(
            [
                ("root", "vm", 0.0, 10.0, None),
                ("a", "cpu", 0.0, 5.0, "root"),
                ("junk", "other", 5.0, 7.0, "root"),
            ]
        )
        # 5 s explained by "a"; the "other" span and the root gap do not count
        assert coverage(s["root"], tr.spans) == pytest.approx(0.5)

    def test_full_coverage(self):
        tr, s = build(
            [
                ("root", "vm", 0.0, 4.0, None),
                ("a", "cpu", 0.0, 4.0, "root"),
            ]
        )
        assert coverage(s["root"], tr.spans) == pytest.approx(1.0)


class TestCriticalPath:
    def test_merges_and_filters(self):
        tr, s = build(
            [
                ("root", "vm", 0.0, 10.0, None),
                ("a", "cpu", 0.0, 5.0, "root"),
                ("blip", "net", 5.0, 5.001, "root"),
                ("b", "cpu", 5.001, 10.0, "root"),
            ]
        )
        text = render_critical_path(s["root"], tr.spans)
        assert [line.split()[-1] for line in text.splitlines()[1:3]] == ["a", "b"]
        assert "(+ 1 shorter segments" in text

    def test_render_critical_path_folds_short_segments(self):
        tr, s = build(
            [
                ("root", "vm", 0.0, 10.0, None),
                ("a", "cpu", 0.0, 9.99, "root"),
                ("blip", "net", 9.99, 10.0, "root"),
            ]
        )
        text = render_critical_path(s["root"], tr.spans)
        assert "critical path of root (10.000 s):" in text
        assert "[cpu] a" in text
        assert "shorter segments" in text
        assert "blip" not in text


class TestHelpers:
    def test_root_selectors(self):
        tr, s = build(
            [
                ("boot:vm001", "vm", 0.0, 2.0, None),
                ("boot:vm000", "vm", 0.0, 1.0, None),
                ("snapshot:vm000", "snapshot", 2.0, 3.0, None),
                ("rpc:x", "rpc", 0.0, 1.0, None),
            ]
        )
        assert [b.name for b in boot_spans(tr.spans)] == ["boot:vm000", "boot:vm001"]
        assert [b.name for b in snapshot_spans(tr.spans)] == ["snapshot:vm000"]

    def test_render_breakdown_table(self):
        tr, s = build(
            [
                ("boot:vm000", "vm", 0.0, 10.0, None),
                ("a", "cpu", 0.0, 6.0, "boot:vm000"),
                ("b", "net", 6.0, 10.0, "boot:vm000"),
            ]
        )
        text = render_breakdown_table([s["boot:vm000"]], tr.spans)
        for token in ("boot:vm000", "cpu", "net", "total"):
            assert token in text
