"""Dependency-free ASCII line charts for the figure reports.

The benchmark harness runs in terminals without plotting stacks, so each
reproduced figure is rendered as a small ASCII chart next to its numeric
table — enough to eyeball the paper's curve shapes (flat vs growing, cross
points, who is on top) directly in the benchmark run's output.
"""

from __future__ import annotations

from typing import Dict, List

from .series import Figure, Series

#: marker characters assigned to series, in insertion order
MARKERS = "ox+*#@%&"


def ascii_chart(
    figure: Figure,
    width: int = 64,
    height: int = 16,
) -> str:
    """Render a figure's series as an ASCII scatter/line chart."""
    all_x = [x for s in figure.series.values() for x in s.x]
    all_y = [y for s in figure.series.values() for y in s.y]
    if not all_x:
        return f"# {figure.figure_id}: (no data)"
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = 0.0, max(all_y)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    x_span = (x_hi - x_lo) or 1.0

    grid: List[List[str]] = [[" "] * width for _ in range(height)]

    def plot_point(x: float, y: float, marker: str) -> None:
        col = int((x - x_lo) / x_span * (width - 1))
        row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
        row = height - 1 - row  # origin at bottom
        if grid[row][col] == " ":
            grid[row][col] = marker
        elif grid[row][col] != marker:
            grid[row][col] = "?"  # overlapping series

    for (name, series), marker in zip(figure.series.items(), MARKERS):
        points = sorted(zip(series.x, series.y))
        # linear interpolation between measured points for a line feel
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            steps = max(2, int((x1 - x0) / x_span * width))
            for k in range(steps + 1):
                t = k / steps
                plot_point(x0 + t * (x1 - x0), y0 + t * (y1 - y0), marker)
        for x, y in points:
            plot_point(x, y, marker)

    lines = [f"{figure.y_label} (0 .. {y_hi:g})"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" {figure.x_label}: {x_lo:g} .. {x_hi:g}")
    legend = "  ".join(
        f"{marker}={name}" for (name, _), marker in zip(figure.series.items(), MARKERS)
    )
    lines.append(f" legend: {legend}")
    return "\n".join(lines)
