"""Result series and derived metrics for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union


@dataclass
class Series:
    """A named y-over-x curve, e.g. boot time versus instance count."""

    name: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.x.append(float(x))
        self.y.append(float(y))

    def at(self, x: float) -> float:
        """The y value at exactly ``x``; a miss raises :class:`KeyError`."""
        try:
            return self.y[self.x.index(float(x))]
        except ValueError:
            raise KeyError(f"{self.name}: no point at x={x}") from None

    def last(self) -> float:
        return self.y[-1]

    def is_monotonic_nondecreasing(self, tolerance: float = 0.0) -> bool:
        return all(b >= a - tolerance for a, b in zip(self.y, self.y[1:]))

    def max(self) -> float:
        return max(self.y)


def speedup(baseline: Series, ours: Series, name: str | None = None) -> Series:
    """Pointwise ``baseline / ours`` over the common x values (Fig. 4c)."""
    common = [x for x in baseline.x if x in ours.x]
    out = Series(name or f"speedup vs {baseline.name}")
    for x in common:
        out.add(x, baseline.at(x) / ours.at(x))
    return out


def from_points(
    points: Sequence,
    metric: Union[str, Callable],
    name: str,
    x: Optional[Callable] = None,
) -> Series:
    """Build a series from a sweep's ``PointResult`` list.

    ``metric`` is a metric name (looked up in ``point.metrics``, falling back
    to an attribute/property of the point) or a callable ``point -> y``. The
    x value defaults to the point's instance count (``point.spec.n``);
    pass ``x`` to extract something else.
    """
    out = Series(name)
    for p in points:
        if callable(metric):
            value = metric(p)
        elif metric in getattr(p, "metrics", {}):
            value = p.metrics[metric]
        else:
            value = getattr(p, metric)
        out.add(p.spec.n if x is None else x(p), value)
    return out


@dataclass
class Figure:
    """One reproduced paper figure: a set of series plus metadata."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: Dict[str, Series] = field(default_factory=dict)

    def add_series(self, s: Series) -> None:
        self.series[s.name] = s
