"""Causally-linked spans over simulated time: the tracing core.

A :class:`Span` is one timed operation — an RPC, a network flow, a VM boot
phase — carrying ``trace_id``/``span_id``/``parent_id`` links, sim-time
start/end and attributes. A :class:`Tracer` produces spans and
threads *context* through the simulation so nesting comes out right without
any site passing parents around explicitly:

* **Within a process** spans nest on a per-process stack: a span started
  while another is open on the same simkit process becomes its child.
* **Across process spawns** the child process inherits, as ambient parent,
  whichever span was open in the spawner at spawn time (the engine calls
  :meth:`Tracer.on_spawn` from ``Process.__init__``). This is how a parallel
  chunk-fetch scatter, or a timeout-raced RPC child process, stays linked to
  the client span that caused it.
* **Across RPC boundaries** ``simkit.rpc.call`` opens a client span and a
  nested server span around the handler, so the request envelope carries the
  context exactly like a trace header would on a real wire.

Like :class:`~repro.simkit.trace.Metrics`, spans are observers only: the
tracer never schedules events, touches RNG streams, or adds simulated time,
so an enabled tracer leaves every timeline bit-identical (regression-tested).
The default tracer on every fabric is :data:`NULL_TRACER`, whose ``enabled``
flag is ``False``. Sites write ``with tracer.start(...):`` around one body;
the null tracer hands them one shared inert span, which costs an untraced
run about 0.4-0.6 us per site. Only the sites that run once per guest op or
once per RPC (``VMInstance.run_ops``, ``MirrorHandle.read``/``write``,
``rpc.call`` and its timed form, ``FlowNetwork.transfer``) branch on
``enabled`` instead, paying one attribute load and branch (DESIGN.md §9).

This module deliberately imports nothing from the rest of ``repro`` so the
low-level simkit layers can depend on it without cycles.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]

#: monotonically increasing trace-id counter (per python process; trace ids
#: only need to be unique within one exported file)
_trace_counter = 0


class Span:
    """One timed, attributed operation in a trace tree."""

    __slots__ = (
        "tracer",
        "span_id",
        "parent_id",
        "name",
        "category",
        "t0",
        "t1",
        "attrs",
        "track",
        "error",
        "_ctx_key",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        t0: float,
        track: int,
        ctx_key: int,
        attrs: Dict[str, Any],
    ):
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.t0 = t0
        self.t1: Optional[float] = None
        self.attrs = attrs
        self.track = track
        self.error: Optional[str] = None
        self._ctx_key = ctx_key

    # ------------------------------------------------------------------ #
    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes."""
        self.attrs.update(attrs)
        return self

    def set_error(self, exc) -> None:
        """Mark the span failed; accepts an exception or a message string."""
        if isinstance(exc, BaseException):
            self.error = f"{type(exc).__name__}: {exc}"
        else:
            self.error = str(exc)

    def finish(self) -> None:
        """Close the span at the current simulated time (idempotent)."""
        if self.t1 is None:
            self.t1 = self.tracer.env.now
            self.tracer._pop(self)

    @property
    def duration(self) -> float:
        """Span length; an open span reads as zero-length."""
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    # context-manager protocol: ``with tracer.start(...):``
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and self.error is None:
            self.set_error(exc)
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.t1:.6f}" if self.t1 is not None else "open"
        return f"Span#{self.span_id}({self.name!r}, {self.category}, {self.t0:.6f}->{end})"


class Tracer:
    """Span factory bound to one simulation :class:`Environment`."""

    enabled = True

    def __init__(self, env, trace_id: Optional[str] = None):
        global _trace_counter
        _trace_counter += 1
        self.env = env
        self.trace_id = trace_id if trace_id is not None else f"trace-{_trace_counter:04d}"
        self.spans: List[Span] = []
        self._next_span = 0
        #: per-process span stacks; key = id(Process), 0 = outside any process
        self._stacks: Dict[int, List[Span]] = {}
        #: ambient parent captured at spawn time (context propagation)
        self._inherit: Dict[int, Span] = {}
        #: export tracks: ctx key -> (track number, label)
        self._track_ids: Dict[int, int] = {0: 0}
        self._track_labels: Dict[int, str] = {0: "main"}
        self._next_track = 1

    # ------------------------------------------------------------------ #
    # context
    # ------------------------------------------------------------------ #
    def _ctx_key(self) -> int:
        proc = self.env._active_process
        return id(proc) if proc is not None else 0

    def current(self) -> Optional[Span]:
        """The innermost open span of the currently executing process.

        Falls back to the ambient parent inherited at spawn time when the
        process has not opened any span of its own yet.
        """
        key = self._ctx_key()
        stack = self._stacks.get(key)
        if stack:
            return stack[-1]
        if key:
            return self._inherit.get(key)
        return None

    def on_spawn(self, proc) -> None:
        """Engine hook: ``proc`` was just created; capture its ambient parent.

        Called from ``Process.__init__`` (only when a tracer is installed).
        Registers a completion callback to drop the bookkeeping — callbacks
        never schedule events, so the timeline is untouched.
        """
        parent = self.current()
        key = id(proc)
        if parent is not None:
            self._inherit[key] = parent
        if proc.callbacks is not None:
            proc.callbacks.append(lambda _ev, k=key: self._forget(k))

    def _forget(self, key: int) -> None:
        self._inherit.pop(key, None)
        self._stacks.pop(key, None)
        self._track_ids.pop(key, None)

    def _track_for(self, key: int) -> int:
        track = self._track_ids.get(key)
        if track is None:
            track = self._next_track
            self._next_track += 1
            self._track_ids[key] = track
            proc = self.env._active_process
            label = getattr(proc, "name", "") or f"proc-{track}"
            self._track_labels[track] = label
        return track

    # ------------------------------------------------------------------ #
    # span production
    # ------------------------------------------------------------------ #
    def _make(self, name: str, category: str, parent: Optional[Span], attrs) -> Span:
        key = self._ctx_key()
        if parent is None:
            parent = self.current()
        self._next_span += 1
        span = Span(
            self,
            self._next_span,
            parent.span_id if parent is not None else None,
            name,
            category,
            self.env.now,
            self._track_for(key),
            key,
            attrs,
        )
        self.spans.append(span)
        return span

    def start(self, name: str, category: str = "other", parent: Optional[Span] = None, **attrs) -> Span:
        """Open a span and push it on the current process's context stack.

        Subsequent spans started in the same process nest under it until it
        finishes. Use as a context manager for the common enclosing case.
        """
        span = self._make(name, category, parent, attrs)
        self._stacks.setdefault(span._ctx_key, []).append(span)
        return span

    def start_async(self, name: str, category: str = "other", parent: Optional[Span] = None, **attrs) -> Span:
        """Open a span *without* making it the ambient context.

        For operations that outlive the instant they were started from and
        complete elsewhere — network flows ending in the completion sentinel,
        for example. The span is still parented to the current context.
        """
        return self._make(name, category, parent, attrs)

    def record(
        self, name: str, category: str, t0: float, t1: float,
        parent: Optional[Span] = None, **attrs,
    ) -> Span:
        """Record a span *closed*, over the computed instants ``[t0, t1]``.

        For an operation whose whole timeline is priced when it starts (a
        fused chain of contention-free delays, DESIGN.md §8): no event fires
        at its interior instants, so there is no "now" to open or finish it
        at. Parented to the current context like :meth:`start_async`.
        """
        span = self._make(name, category, parent, attrs)
        span.t0 = t0
        span.t1 = t1
        return span

    def _pop(self, span: Span) -> None:
        stack = self._stacks.get(span._ctx_key)
        if stack:
            try:
                stack.remove(span)
            except ValueError:
                pass

    # ------------------------------------------------------------------ #
    def finish_open_spans(self) -> int:
        """Close every span still open (end of run); returns how many."""
        n = 0
        for span in self.spans:
            if span.t1 is None:
                span.t1 = self.env.now
                n += 1
        self._stacks.clear()
        return n

    def track_label(self, track: int) -> str:
        return self._track_labels.get(track, f"proc-{track}")


class NullTracer:
    """The default: ``enabled`` is False, everything no-ops.

    ``with tracer.start(...):`` gets the shared inert span, so a site needs
    no branch of its own; the per-guest-op and per-RPC sites test
    ``enabled`` and skip even that. The engine-level spawn hook is skipped
    because only installing a tracer sets ``env._tracer``.
    """

    enabled = False
    spans: List[Span] = []

    def start(self, name: str, category: str = "other", parent=None, **attrs) -> "_NullSpan":
        return _NULL_SPAN

    def record(self, name: str, category: str, t0: float, t1: float, parent=None, **attrs) -> "_NullSpan":
        return _NULL_SPAN


class _NullSpan:
    """Inert span returned by :class:`NullTracer`."""

    __slots__ = ()

    def set(self, **attrs):
        return self

    def set_error(self, exc):
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        pass


_NULL_SPAN = _NullSpan()

#: Shared inert tracer; the default value of ``Fabric.tracer``.
NULL_TRACER = NullTracer()
