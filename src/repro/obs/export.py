"""Trace export: Chrome/Perfetto ``trace_event`` JSON.

:func:`to_trace_events` / :func:`write_trace_json` render a
:class:`~repro.obs.span.Tracer` in the Chrome trace-event format
(``{"traceEvents": [...]}`` with ``ph:"X"`` complete events in
microseconds), loadable directly into ``about:tracing`` or
https://ui.perfetto.dev. One pid represents the simulated cluster; each
simkit process gets its own named thread track, so nested spans render as
flame stacks and parallel fetch scatters as parallel tracks.

Sim time is in seconds; the trace-event format wants integer-ish
microseconds, so timestamps are exported as ``t * 1e6``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from .span import Span, Tracer

__all__ = ["to_trace_events", "write_trace_json"]

#: single synthetic pid: the simulated cluster
_PID = 1


def _span_args(span: Span) -> Dict[str, Any]:
    args: Dict[str, Any] = {"span_id": span.span_id}
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    args.update(span.attrs)
    if span.error is not None:
        args["error"] = span.error
    return args


def to_trace_events(tracer: Tracer, end_time: Optional[float] = None) -> Dict[str, Any]:
    """Render the tracer's spans as a Chrome trace-event document."""
    if end_time is None:
        end_time = tracer.env.now
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID,
            "tid": 0,
            "args": {"name": f"repro-sim {tracer.trace_id}"},
        }
    ]
    tracks = sorted({span.track for span in tracer.spans})
    for track in tracks:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID,
                "tid": track,
                "args": {"name": tracer.track_label(track)},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": _PID,
                "tid": track,
                "args": {"sort_index": track},
            }
        )
    for span in tracer.spans:
        t1 = span.t1 if span.t1 is not None else end_time
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category,
                "ts": span.t0 * 1e6,
                "dur": (t1 - span.t0) * 1e6,
                "pid": _PID,
                "tid": span.track,
                "args": _span_args(span),
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": tracer.trace_id, "spans": len(tracer.spans)},
    }


def write_trace_json(path, tracer: Tracer, end_time: Optional[float] = None) -> Path:
    """Write the Perfetto-loadable ``.trace.json`` file; returns its path."""
    path = Path(path)
    doc = to_trace_events(tracer, end_time=end_time)
    path.write_text(json.dumps(doc, default=str))
    return path
