"""Critical-path extraction and time-breakdown analysis over span trees.

Answers the question the aggregate counters cannot: *where did a VM's boot
(or a snapshot) actually spend its time?* The core primitive is
:func:`attribute`: project every descendant span of a root onto the root's
time interval and, at every instant, attribute that instant to the
**deepest** span covering it. Because spans nest causally, the deepest cover
is the most specific explanation of what the simulation was doing — a chunk
fetch waiting on a flow attributes to the flow (``net``), the FUSE per-op
overhead around it attributes to the enclosing VFS span, and so on. The
resulting segments partition the root's interval exactly, so the
per-category breakdown sums to the root's duration by construction.

:func:`render_critical_path` prints those segments: for a (sequential) root
span they are literally the chain of operations that determined its
latency; for roots with parallel children the deepest-latest tie-break
picks one representative branch per instant.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .span import Span

__all__ = [
    "Segment",
    "attribute",
    "category_breakdown",
    "coverage",
    "boot_spans",
    "snapshot_spans",
    "render_breakdown_table",
    "render_critical_path",
]


class Segment(NamedTuple):
    """One attributed slice of a root span's interval."""

    t0: float
    t1: float
    span: Span

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def _subtree(root: Span, spans: Sequence[Span]) -> List[Tuple[float, float, int, Span]]:
    """Clipped ``(t0, t1, depth, span)`` items of root's subtree (root incl.)."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    root_end = root.t1 if root.t1 is not None else root.t0
    items: List[Tuple[float, float, int, Span]] = []
    frontier: List[Tuple[Span, int]] = [(root, 0)]
    while frontier:
        span, depth = frontier.pop()
        t0 = max(span.t0, root.t0)
        t1 = span.t1 if span.t1 is not None else root_end
        t1 = min(t1, root_end)
        if t1 > t0 or span is root:
            items.append((t0, t1, depth, span))
        for child in children.get(span.span_id, ()):
            frontier.append((child, depth + 1))
    return items


def attribute(root: Span, spans: Sequence[Span]) -> List[Segment]:
    """Partition ``[root.t0, root.t1]`` into deepest-cover segments.

    Every instant of the root's interval is attributed to exactly one span
    of its subtree (ties: deeper, then later-started, then later-created
    wins), so ``sum(seg.duration) == root.duration`` up to float error.
    """
    items = _subtree(root, spans)
    if not items or root.t1 is None or root.t1 <= root.t0:
        return []
    boundaries = sorted({t for it in items for t in (it[0], it[1])})
    # start-ordered for incremental pushes; the active set is a lazy max-heap
    # keyed by (depth, t0, creation order) — spans never re-activate after
    # their end, so stale heads are popped lazily.
    items.sort(key=lambda it: it[0])
    heap: List[Tuple[float, float, int, float, Span]] = []
    idx = 0
    raw: List[Segment] = []
    for b0, b1 in zip(boundaries, boundaries[1:]):
        if b1 <= b0:
            continue
        while idx < len(items) and items[idx][0] <= b0:
            t0, t1, depth, span = items[idx]
            heapq.heappush(heap, (-depth, -t0, -span.span_id, t1, span))
            idx += 1
        while heap and heap[0][3] <= b0:
            heapq.heappop(heap)
        if not heap:
            continue  # gap outside any span (cannot happen inside the root)
        raw.append(Segment(b0, b1, heap[0][4]))
    # merge adjacent segments attributed to the same span
    merged: List[Segment] = []
    for seg in raw:
        if merged and merged[-1].span is seg.span and merged[-1].t1 == seg.t0:
            merged[-1] = Segment(merged[-1].t0, seg.t1, seg.span)
        else:
            merged.append(seg)
    return merged


def category_breakdown(root: Span, spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds per category over the root's interval; sums to root.duration."""
    out: Dict[str, float] = {}
    for seg in attribute(root, spans):
        cat = seg.span.category
        out[cat] = out.get(cat, 0.0) + seg.duration
    return out


def coverage(root: Span, spans: Sequence[Span]) -> float:
    """Fraction of the root's time explained by specific descendant spans.

    Time attributed to the root itself (uninstrumented gaps) or to spans of
    category ``"other"`` does not count. This is the acceptance metric: a
    traced VM boot must come out >= 0.95.
    """
    if root.t1 is None or root.t1 <= root.t0:
        return 0.0
    explained = 0.0
    for seg in attribute(root, spans):
        if seg.span is not root and seg.span.category != "other":
            explained += seg.duration
    return explained / (root.t1 - root.t0)


# ---------------------------------------------------------------------- #
# deployment-level helpers
# ---------------------------------------------------------------------- #
def boot_spans(spans: Iterable[Span]) -> List[Span]:
    """Per-VM boot root spans, in VM order."""
    return sorted(
        (s for s in spans if s.category == "vm" and s.name.startswith("boot:")),
        key=lambda s: s.name,
    )


def snapshot_spans(spans: Iterable[Span]) -> List[Span]:
    """Per-VM snapshot root spans, in VM order."""
    return sorted(
        (s for s in spans if s.category == "snapshot" and s.name.startswith("snapshot:")),
        key=lambda s: s.name,
    )


def render_breakdown_table(
    roots: Sequence[Span],
    spans: Sequence[Span],
    title: str = "per-VM time breakdown (seconds)",
    categories: Optional[Sequence[str]] = None,
) -> str:
    """Paper-style table: one row per root span, one column per category."""
    from ..analysis.report import render_bars

    breakdowns = [category_breakdown(r, spans) for r in roots]
    if categories is None:
        totals: Dict[str, float] = {}
        for b in breakdowns:
            for cat, secs in b.items():
                totals[cat] = totals.get(cat, 0.0) + secs
        categories = sorted(totals, key=lambda c: -totals[c])
    labels = [r.name for r in roots]
    groups = {cat: [b.get(cat, 0.0) for b in breakdowns] for cat in categories}
    groups["total"] = [r.duration for r in roots]
    return render_bars(title, labels, groups, fmt="{:12.3f}")


def render_critical_path(root: Span, spans: Sequence[Span]) -> str:
    """Human-readable critical path of one root span.

    Segments shorter than 1 % of the root are folded into a single
    trailing "(+ N shorter segments, X s)" line.
    """
    duration = root.duration
    segments = attribute(root, spans)
    lines = [f"critical path of {root.name} ({duration:.3f} s):"]
    folded = 0
    folded_secs = 0.0
    for seg in segments:
        if duration > 0 and seg.duration < 0.01 * duration:
            folded += 1
            folded_secs += seg.duration
            continue
        pct = 100.0 * seg.duration / duration if duration > 0 else 0.0
        where = seg.span.name if seg.span is not root else "(uninstrumented)"
        lines.append(
            f"  {seg.t0:10.4f} -> {seg.t1:10.4f}  {seg.duration:8.4f} s"
            f"  {pct:5.1f}%  [{seg.span.category}] {where}"
        )
    if folded:
        lines.append(f"  (+ {folded} shorter segments, {folded_secs:.4f} s)")
    return "\n".join(lines)
