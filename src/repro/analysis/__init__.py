"""Result series, speedups, and paper-style reports."""

from .plot import ascii_chart
from .report import check_shape, render_bars, render_figure
from .series import Figure, Series, from_points, speedup

__all__ = [
    "Figure",
    "Series",
    "ascii_chart",
    "check_shape",
    "from_points",
    "render_bars",
    "render_figure",
    "speedup",
]
