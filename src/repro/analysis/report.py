"""Paper-style text rendering of reproduced figures.

The benchmark harness prints, for every reproduced figure, the series the
paper plots — instance counts on the x axis, one column per approach — so a
run's output can be compared line by line against the original plots.
"""

from __future__ import annotations

from typing import Iterable, List

from .series import Figure


def render_figure(figure: Figure, fmt: str = "{:10.2f}") -> str:
    """ASCII table: one row per x value, one column per series."""
    names = list(figure.series)
    xs: List[float] = sorted({x for s in figure.series.values() for x in s.x})
    header = f"# {figure.figure_id}: {figure.title}"
    lines = [header, ""]
    col = max(12, max((len(n) for n in names), default=12) + 2)
    lines.append(figure.x_label.ljust(16) + "".join(n.rjust(col) for n in names))
    for x in xs:
        row = f"{x:<16g}"
        for name in names:
            try:
                row += fmt.format(figure.series[name].at(x)).rjust(col)
            except KeyError:
                row += "-".rjust(col)
        lines.append(row)
    lines.append(f"(y: {figure.y_label})")
    return "\n".join(lines)


def render_bars(title: str, labels: Iterable[str], groups: dict, fmt: str = "{:12.1f}") -> str:
    """Grouped-bar style table (Figs. 6, 7, 8): one row per label."""
    labels = list(labels)
    names = list(groups)
    col = max(14, max(len(n) for n in names) + 2)
    lines = [f"# {title}", "", " " * 16 + "".join(n.rjust(col) for n in names)]
    for i, label in enumerate(labels):
        row = label.ljust(16)
        for name in names:
            row += fmt.format(groups[name][i]).rjust(col)
        lines.append(row)
    return "\n".join(lines)


def check_shape(description: str, condition: bool) -> str:
    """Render a shape-acceptance check (used in bench output and EXPERIMENTS.md)."""
    mark = "PASS" if condition else "FAIL"
    return f"[{mark}] {description}"
