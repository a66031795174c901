"""Tests for the ASCII chart renderer."""

from repro.analysis import Figure, Series, ascii_chart


def make_figure():
    fig = Figure("figX", "demo", "instances", "seconds")
    flat = Series("flat")
    rising = Series("rising")
    for n in (1, 20, 40, 60, 80, 110):
        flat.add(n, 10.0)
        rising.add(n, n * 0.5)
    fig.add_series(flat)
    fig.add_series(rising)
    return fig


class TestAsciiChart:
    def test_contains_axes_and_legend(self):
        text = ascii_chart(make_figure())
        assert "instances: 1 .. 110" in text
        assert "o=flat" in text and "x=rising" in text
        assert text.count("|") >= 16  # the y-axis rows

    def test_markers_present(self):
        text = ascii_chart(make_figure())
        assert "o" in text and "x" in text

    def test_flat_series_on_one_row(self):
        fig = Figure("f", "t", "x", "y")
        s = Series("only")
        for n in (0, 10, 20):
            s.add(n, 5.0)
        fig.add_series(s)
        text = ascii_chart(fig)
        rows_with_marker = [line for line in text.splitlines() if "o" in line and line.startswith("|")]
        assert len(rows_with_marker) == 1

    def test_rising_series_spans_rows(self):
        fig = Figure("f", "t", "x", "y")
        s = Series("up")
        for n in range(5):
            s.add(n, float(n))
        fig.add_series(s)
        text = ascii_chart(fig)
        rows_with_marker = [line for line in text.splitlines() if "o" in line and line.startswith("|")]
        assert len(rows_with_marker) >= 5

    def test_empty_figure(self):
        fig = Figure("f", "t", "x", "y")
        assert "(no data)" in ascii_chart(fig)

    def test_overlap_marked(self):
        fig = Figure("f", "t", "x", "y")
        a = Series("a")
        b = Series("b")
        for n in (0, 10):
            a.add(n, 1.0)
            b.add(n, 1.0)  # exact overlap
        fig.add_series(a)
        fig.add_series(b)
        assert "?" in ascii_chart(fig)
