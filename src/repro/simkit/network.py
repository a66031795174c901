"""Flow-level network fabric with equal-share bandwidth sharing over links.

The paper's testbed is a commodity GigE cluster (117.5 MB/s measured TCP
throughput, ~0.1 ms latency) behind a non-blocking switch, so the only
bandwidth constraints that matter there are the hosts' NICs. We model the
network at *flow level*: a bulk transfer is a fluid flow whose instantaneous
rate is its fair share of every link on its path.

**One link record.** A :class:`_Link` is one direction of a capacity-
constrained resource. A NIC owns two (its uplink and its downlink); a racked
:class:`~repro.topo.Topology` adds one per rack trunk direction
(``rack3:up``, ``rack3:down``). ``Flow.links`` is the flow's whole path,
``(src.up, dst.down, *trunks)``; a flat fabric — no topology, a single
rack, or two hosts of the same rack — is simply a path with no trunks.
Nothing below distinguishes a NIC direction from a trunk.

**One sharing rule: equal share.**
``rate(f) = min(capacity(l) / n_flows(l) for l in f.links)``. It slightly
*under*-estimates throughput versus true max-min sharing because the share
a bottlenecked-elsewhere flow leaves on a link is not redistributed. Exact
max-min (progressive filling) lives on only as a test yardstick,
``MaxMinNetwork`` in ``tests/reference_network.py``, which the benchmarks'
sharing-model ablation compares against.

**Cohort engine**: every flow bottlenecked on the same link has the *same*
rate, so each link keeps one lazy cohort record (share level, an epoch
counter, and a closed-segment history of past share levels) instead of
touching every crossing flow on each arrival or departure. A flow's *home*
is the tightest link on its path; on the other links of its path it is
*foreign*. A flow's ``(remaining, t_last)`` is materialized only when its
rate actually changes (its home switches to a link with a different share),
when it becomes the cohort head (its ETA is needed), or when it aborts — by
replaying the exact per-segment products an eager per-flow update would have
computed, so results are bit-identical to a per-flow equal-share engine
(kept as a reference under ``tests/``, see ``tests/reference_network.py``).
Flow maintenance is near-O(1) per event instead of O(flows on the touched
links) — the difference between O(F²) and O(F log F) aggregate work for the
paper's fan-in deployment patterns, on flat and oversubscribed fabrics
alike. See DESIGN.md §8.

**Completion wakeups** use a single earliest-ETA sentinel event per network
rather than one timer per flow per rebalance: a lazily-invalidated heap
holds one entry per link (the cohort head's ETA, invalidated by epoch
bumps), and at most one pending sentinel timer tracks the heap head.

Small control messages (below :attr:`FlowNetwork.message_threshold`) bypass
the fluid model and pay ``latency + size/capacity + per_message_overhead``;
their bytes still land in the traffic accounting (per-tier scoped when a
topology is attached — a trunk is latency-dominated for them, not
bandwidth-limited, so they do not consume trunk share). Tier accounting
lives only in :class:`Metrics` and never affects the timeline.
"""

from __future__ import annotations

from bisect import insort_right
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from ..topo.fabric import Topology

from ..common.errors import ProviderUnavailableError
from ..common.units import MB, MILLISECONDS
from ..obs.span import NULL_TRACER
from .core import Environment, Event, Timeout
from .trace import Metrics

_INF = float("inf")


class _Link:
    """One direction of a shared link — a NIC uplink/downlink or a trunk.

    ``n_flows`` counts the flows crossing the link and ``share`` is its
    current equal-share level, ``capacity / max(1, n_flows)``.

    The rest is the link's equal-share *cohort*. ``segs`` is the closed
    history of past share levels as ``(t_end, share)`` pairs: a lazy flow
    replays the pending suffix (from its ``seg_idx``) to materialize exactly
    the subtract-and-clamp products an eager per-flow update would have
    applied at each boundary. ``natives`` holds the flows bottlenecked here,
    sorted by remaining bytes (ties in join order — insort_right is
    stable), so ``natives[0]`` is always the link's next completion.
    ``foreign`` holds crossing flows bottlenecked on another link of their
    path. ``epoch`` invalidates completion-heap entries; ``others_floor``
    is a sound lower bound on the shares of the *other* links on the
    natives' paths, letting a share increase skip the switch-out scan when
    no native can possibly leave.
    """

    __slots__ = (
        "name", "capacity", "n_flows", "share", "epoch", "natives", "foreign",
        "segs", "seg_base", "others_floor",
    )

    def __init__(self, name: str, capacity: float):
        self.name = name
        self.capacity = self.checked(capacity, f"capacity of link {name}")
        self.n_flows = 0
        self.share = self.capacity
        self.epoch = 0
        self.natives: List[Flow] = []
        self.foreign: Dict[Flow, None] = {}
        self.segs: List[Tuple[float, float]] = []
        self.seg_base = 0
        self.others_floor = _INF

    @staticmethod
    def checked(capacity: float, what: str) -> float:
        """The one capacity validation: every share is a quotient of it."""
        if not capacity > 0:
            raise ValueError(f"{what} must be positive, got {capacity}")
        return float(capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"_Link({self.name}, cap={self.capacity / MB:.1f}MB/s, "
            f"share={self.share / MB:.1f}MB/s, n={self.n_flows}, "
            f"natives={len(self.natives)})"
        )


class Nic:
    """A full-duplex network interface: independent ``up`` and ``down`` links.

    ``rack`` is the NIC's rack on the attached topology, read once when the
    NIC is added (0 on a flat fabric).
    """

    __slots__ = ("name", "up", "down", "rack")

    def __init__(
        self, name: str, up_capacity: float, down_capacity: float | None = None, rack: int = 0
    ):
        self.name = name
        self.up = _Link(f"{name}:up", up_capacity)
        self.down = _Link(
            f"{name}:down", down_capacity if down_capacity is not None else up_capacity
        )
        self.rack = rack

    @property
    def up_capacity(self) -> float:
        return self.up.capacity

    @property
    def down_capacity(self) -> float:
        return self.down.capacity

    def __repr__(self) -> str:
        return f"Nic({self.name}, up={self.up.capacity / MB:.1f}MB/s)"


class Flow:
    """A bulk transfer in flight. Internal to :class:`FlowNetwork`.

    ``links`` is the flow's path, ``(src.up, dst.down, *trunks)``, and
    ``scope`` its tier label for traffic accounting (None without a
    topology). ``home`` is the link whose share is the flow's rate (the
    tightest link of the path) and ``seg_idx`` the absolute index of the
    first segment of that link's history not yet applied to ``remaining``.
    """

    __slots__ = (
        "src", "dst", "size", "remaining", "t_last", "done", "kind", "span",
        "home", "seg_idx", "links", "scope",
    )

    def __init__(
        self,
        src: Nic,
        dst: Nic,
        size: float,
        done: Event,
        kind: str,
        links: Tuple[_Link, ...],
        scope: Optional[str],
        now: float,
    ):
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.remaining = float(size)
        self.t_last = now
        self.done = done
        self.kind = kind
        self.span = None  # observability: set by transfer() when tracing
        self.home: Optional[_Link] = None
        self.seg_idx = 0
        self.links = links
        self.scope = scope


class FlowNetwork:
    """The cluster fabric: NIC registry, flows, messages, traffic accounting."""

    def __init__(
        self,
        env: Environment,
        metrics: Optional[Metrics] = None,
        latency: float = 0.1 * MILLISECONDS,
        message_threshold: int = 4096,
        per_message_overhead: float = 0.02 * MILLISECONDS,
        message_header_bytes: int = 66,
        topology: Optional["Topology"] = None,
    ):
        #: racked fabric (None = flat switch): trunks on cross-rack paths
        #: plus per-tier traffic accounting
        self.topology = topology
        self.env = env
        self.metrics = metrics if metrics is not None else Metrics()
        self.latency = latency
        self.message_threshold = message_threshold
        self.per_message_overhead = per_message_overhead
        self.message_header_bytes = message_header_bytes
        #: observability: flow begin/end spans; inert unless a tracer is
        #: installed via :func:`repro.obs.install_tracer`
        self.tracer = NULL_TRACER
        self._trunks: Dict[str, _Link] = {}
        if topology is not None:
            self._build_trunks(topology)
        #: memoized (src rack, dst rack) -> (trunks on the path, tier label)
        self._routes: Dict[Tuple[int, int], Tuple[Tuple[_Link, ...], Optional[str]]] = {}
        #: links touched by the current event, in first-encounter order (a
        #: dict keeps a key's position when it is set again); flushed (epoch
        #: bump + head ETA repush) at the end of the event
        self._dirty: Dict[_Link, None] = {}
        #: share changes of the current event awaiting bottleneck settling:
        #: ``(link, old_share)`` in change order. Settling is deferred until
        #: every share of the event is final so switch decisions compare
        #: final values — mid-event comparisons against stale shares of the
        #: other links could move a flow needlessly and subdivide its float
        #: products.
        self._pending: List[Tuple[_Link, float]] = []
        self._nics: Dict[str, Nic] = {}
        self._flows: Dict[Flow, None] = {}
        #: min-heap of completion candidates, stale entries dropped lazily:
        #: (head ETA, push tie-breaker, link epoch, link)
        self._completions: List[tuple] = []
        self._push_seq = 0
        #: generation of the currently armed sentinel timer (stale timers
        #: no-op on fire) and the absolute time it targets (None = no timer).
        self._sentinel_gen = 0
        self._sentinel_time: float | None = None

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #
    def add_nic(self, name: str, up_capacity: float, down_capacity: float | None = None) -> Nic:
        if name in self._nics:
            raise ValueError(f"duplicate NIC name {name!r}")
        topo = self.topology
        rack = topo.rack(name) if topo is not None else 0
        nic = Nic(name, up_capacity, down_capacity, rack)
        self._nics[name] = nic
        return nic

    @property
    def active_flow_count(self) -> int:
        return len(self._flows)

    def _build_trunks(self, topo: "Topology") -> None:
        trunks = self._trunks
        for r in range(topo.n_racks):
            for name in (f"rack{r}:up", f"rack{r}:down"):
                trunks[name] = _Link(name, topo.rack_uplink)

    def _route(self, src: Nic, dst: Nic) -> Tuple[Tuple[_Link, ...], Optional[str]]:
        """``(trunks, scope)`` of a src->dst transfer, resolved once per rack pair.

        Intra-rack flows cross no trunk (the top-of-rack switch is
        non-blocking); cross-rack flows pay both rack trunks (the core is
        non-blocking). Without a topology every NIC sits in rack 0 and the
        one route is ``((), None)``: no trunks, no tier accounting.
        """
        key = (src.rack, dst.rack)
        route = self._routes.get(key)
        if route is not None:
            return route
        topo = self.topology
        r1, r2 = key
        trunks = self._trunks
        path = (trunks[f"rack{r1}:up"], trunks[f"rack{r2}:down"]) if r1 != r2 else ()
        scope = topo.scope(src.name, dst.name) if topo is not None else None
        route = self._routes[key] = (path, scope)
        return route

    # ------------------------------------------------------------------ #
    # transfers
    # ------------------------------------------------------------------ #
    def transfer(self, src: Nic, dst: Nic, nbytes: int, kind: str = "bulk") -> Event:
        """Start a bulk transfer; the event fires when the last byte lands."""
        env = self.env
        delay = self.transfer_delay(src, dst, nbytes, kind)
        if delay is not None:
            # Loopback or message-sized: a pre-scheduled Timeout — identical
            # to an Event fired via schedule_at, minus the extra allocation.
            return Timeout(env, delay)
        done = Event(env)
        trunks, scope = self._route(src, dst)
        links = (src.up, dst.down) + trunks
        flow = Flow(src, dst, nbytes, done, kind, links, scope, env.now)
        tracer = self.tracer
        if tracer.enabled:
            # async span: the flow ends inside the sentinel callback where no
            # process is active, so it never sits on a context stack
            flow.span = tracer.start_async(
                f"flow:{src.name}->{dst.name}", "net", nbytes=int(nbytes), kind=kind
            )
        self._flows[flow] = None
        for link in links:
            link.n_flows += 1
        self._admit(flow)
        return done

    def message(
        self,
        src: Nic,
        dst: Nic,
        nbytes: int,
        kind: str = "message",
        done: Event | None = None,
    ) -> Event:
        """A small control message: latency + serialization, no fair sharing."""
        env = self.env
        delay = self.message_delay(src, dst, nbytes, kind)
        if done is None:
            # A Timeout *is* an event pre-scheduled at now+delay: one
            # flattened constructor instead of Event + schedule_at.
            return Timeout(env, delay)
        # Caller-supplied completion event: fire it directly at delivery time.
        env.schedule_at(done, env.now + delay)
        return done

    def message_delay(self, src: Nic, dst: Nic, nbytes: int, kind: str = "message") -> float:
        """Account one control message and return its delivery delay.

        The pricing half of :meth:`message`, for callers that fold the delay
        into a longer contention-free chain (DESIGN.md §8, event fusion)
        instead of waiting on a :class:`Timeout` of its own.
        """
        if src is dst:
            return self.per_message_overhead
        wire_bytes = nbytes + self.message_header_bytes
        up = src.up.capacity
        down = dst.down.capacity
        # Same API as transfer()/_complete(): accounting hooks (test
        # doubles, future per-kind observers) see every wire byte.
        self.metrics.add_traffic(wire_bytes, kind)
        if self.topology is not None:
            self.metrics.add_topo_traffic(self._route(src, dst)[1], kind, wire_bytes)
        return (
            self.latency
            + self.per_message_overhead
            + wire_bytes / (up if up < down else down)
        )

    def transfer_delay(self, src: Nic, dst: Nic, nbytes: int, kind: str = "bulk"):
        """Account a transfer that shares no link and return its fixed delay.

        ``0.0`` for a loopback, the message delay at or below
        :attr:`message_threshold`, and ``None`` — nothing accounted — when
        the transfer has to ride the fabric as a flow (:meth:`transfer`).
        """
        if src is dst:
            # Loopback: no NIC constraint; charge memory-copy-ish zero time.
            self.metrics.add_traffic(0, kind)  # loopback does not hit the wire
            return 0.0
        if nbytes <= self.message_threshold:
            return self.message_delay(src, dst, nbytes, kind)
        return None

    # ------------------------------------------------------------------ #
    # fault injection
    # ------------------------------------------------------------------ #
    def set_nic_capacity(
        self, nic: Nic, up_capacity: float, down_capacity: float | None = None
    ) -> None:
        """Change a NIC's capacities mid-run (fault injection: NIC degradation).

        In-flight flows crossing the NIC are rebalanced immediately; flows on
        other links are untouched. A rejected update leaves both capacities
        as they were.
        """
        if down_capacity is None:
            down_capacity = up_capacity
        up = _Link.checked(up_capacity, f"up_capacity of NIC {nic.name}")
        down = _Link.checked(down_capacity, f"down_capacity of NIC {nic.name}")
        nic.up.capacity = up
        nic.down.capacity = down
        self._rebalance((nic.up, nic.down))

    def set_trunk_capacity(self, name: str, capacity: float) -> None:
        """Change a trunk's capacity mid-run (fault injection: uplink squeeze).

        ``name`` is ``rack<r>:up`` or ``rack<r>:down``.
        """
        trunk = self._trunks.get(name)
        if trunk is None:
            known = ", ".join(self._trunks) or "none (no topology attached)"
            raise ValueError(f"unknown trunk {name!r}; known trunks: {known}")
        trunk.capacity = _Link.checked(capacity, f"capacity of trunk {name}")
        self._rebalance((trunk,))

    def fail_nic(self, nic: Nic, cause: str = "nic failure") -> None:
        """Abort every flow crossing ``nic`` (host crash / link loss).

        Each victim's ``done`` event fails with
        :class:`~repro.common.errors.ProviderUnavailableError`, so waiting
        transfer callers see the loss exactly like an RPC failure. Bytes
        already on the wire are charged to the traffic accounting.
        """
        # outgoing flows first, each group in start order: the order fixes
        # float accumulation and the tie-breaking of the failure events
        flows = self._flows
        victims = [f for f in flows if f.src is nic] + [f for f in flows if f.dst is nic]
        if not victims:
            return
        now = self.env.now
        touched: Dict[_Link, None] = {}  # insertion-ordered: determinism
        for flow in victims:
            del flows[flow]
            for link in flow.links:
                link.n_flows -= 1
                touched[link] = None
            self._drain(flow, now)  # at the pre-failure rate
            sent = flow.size - flow.remaining
            self.metrics.add_traffic(sent, flow.kind)
            if flow.scope is not None:
                self.metrics.add_topo_traffic(flow.scope, flow.kind, sent)
            span = flow.span
            if span is not None:
                span.set_error(f"aborted: {cause}")
                span.finish()
                flow.span = None
            flow.done.fail(ProviderUnavailableError(cause))
        for flow in victims:
            self._detach(flow)
        self._rebalance(touched)

    def _drain(self, flow: Flow, now: float) -> None:
        """Advance ``remaining`` to ``now`` at the flow's current rate.

        Replays the flow's pending closed segments, then the open partial at
        its home's share — the exact products an eager per-flow update would
        have applied.
        """
        self._replay(flow)
        t = flow.t_last
        if t < now:
            rem = flow.remaining - flow.home.share * (now - t)
            flow.remaining = rem if rem > 0.0 else 0.0
            flow.t_last = now

    # ------------------------------------------------------------------ #
    # rate maintenance
    # ------------------------------------------------------------------ #
    def _rebalance(self, links: Iterable[_Link]) -> None:
        """Capacity or membership of ``links`` changed: re-rate their flows."""
        now = self.env.now
        for link in links:
            self._reshare(link, link.capacity / max(1, link.n_flows), now)
        self._flush_dirty(now)

    # ------------------------------------------------------------------ #
    # cohort engine: lazy per-link rate epochs
    # ------------------------------------------------------------------ #
    def _admit(self, flow: Flow) -> None:
        """A counted new flow joins the cohorts of its path."""
        now = self.env.now
        links = flow.links
        for link in links:
            self._reshare(link, link.capacity / link.n_flows, now)
        # The flow's bottleneck is the strictly tightest link (ties stay on
        # the earliest link of the path — same value either way).
        home = links[0]
        for link in links:
            if link.share < home.share:
                home = link
        for link in links:
            if link is not home:
                link.foreign[flow] = None
        self._insert_native(home, flow, now)
        self._flush_dirty(now)

    def _detach(self, flow: Flow) -> None:
        """Remove a departing flow from the cohorts of its path."""
        home = flow.home
        self._remove_native(home, flow)
        for link in flow.links:
            if link is not home:
                del link.foreign[flow]
        flow.home = None

    def _runner_up(self, flow: Flow) -> _Link:
        """The tightest link of a flow's path besides its home.

        Ties go to the earliest link of the path; which tied link is chosen
        never changes a rate value.
        """
        links = flow.links
        home = flow.home
        if len(links) == 2:  # no trunks: the other NIC direction
            return links[1] if links[0] is home else links[0]
        best = None
        for link in links:
            if link is not home and (best is None or link.share < best.share):
                best = link
        return best

    def _replay(self, flow: Flow, stop: Optional[int] = None) -> None:
        """Drain the flow's pending closed segments (exact materialization).

        Each pending segment ``(t_end, share)`` corresponds to one
        subtract-and-clamp an eager per-flow update performs at that
        boundary; replaying them in order reproduces the same float results
        bit-for-bit. ``stop`` (an absolute segment index) excludes a suffix —
        used when a bottleneck switch does not change the rate *value*, where
        the eager update skips the materialization entirely.
        """
        home = flow.home
        segs = home.segs
        i = flow.seg_idx - home.seg_base
        end = len(segs) if stop is None else stop - home.seg_base
        if i >= end:
            return
        rem = flow.remaining
        t = flow.t_last
        while i < end:
            t_end, share = segs[i]
            rem -= share * (t_end - t)
            if rem <= 0.0:
                rem = 0.0
            t = t_end
            i += 1
        flow.remaining = rem
        flow.t_last = t
        flow.seg_idx = home.seg_base + end

    def _virtual_rem(self, flow: Flow, now: float) -> float:
        """The flow's remaining bytes at ``now``, computed without mutating.

        Used as the insort key: probing a native mid-segment must not
        materialize it (an eager update would not have touched it), so the
        pending segments plus the open partial are applied to a local copy.
        """
        home = flow.home
        segs = home.segs
        i = flow.seg_idx - home.seg_base
        n = len(segs)
        rem = flow.remaining
        t = flow.t_last
        while i < n:
            t_end, share = segs[i]
            rem -= share * (t_end - t)
            if rem <= 0.0:
                rem = 0.0
            t = t_end
            i += 1
        if t < now:
            rem -= home.share * (now - t)
            if rem <= 0.0:
                rem = 0.0
        return rem

    def _insert_native(self, link: _Link, flow: Flow, now: float) -> None:
        """Make ``flow`` a native of ``link`` (its rate = link.share from now on)."""
        flow.home = link
        flow.seg_idx = link.seg_base + len(link.segs)
        floor = self._runner_up(flow).share
        if floor < link.others_floor:
            link.others_floor = floor
        insort_right(link.natives, flow, key=lambda g: self._virtual_rem(g, now))
        self._dirty[link] = None

    def _remove_native(self, link: _Link, flow: Flow) -> None:
        link.natives.remove(flow)
        self._dirty[link] = None

    def _reshare(self, link: _Link, new_share: float, now: float) -> None:
        """Apply a share *value* change to one link.

        Closes the current segment (recording the old level for lazy
        replays) and queues the link for bottleneck settling at event end
        (:meth:`_settle`). Equal-value calls are no-ops, exactly like an
        eager update's skip-unchanged-rate.
        """
        old = link.share
        if new_share == old:
            return
        self._dirty[link] = None
        natives = link.natives
        if natives:
            segs = link.segs
            segs.append((now, old))
            if len(segs) > 256 and len(segs) > 8 * len(natives):
                # compact: drain everyone to the second-to-last boundary
                # (the final segment stays — a tie switch may need to skip
                # it) and drop the replayed prefix
                stop = link.seg_base + len(segs) - 1
                for g in natives:
                    self._replay(g, stop)
                last = segs[-1]
                link.seg_base += len(segs) - 1
                segs[:] = [last]
        link.share = new_share
        self._pending.append((link, old))

    def _settle(self, now: float) -> None:
        """Process the event's bottleneck switches, all shares final.

        A decrease can capture foreign flows whose home is now looser; an
        increase can lose natives to another link of their path. Each link
        is reshared at most once per event, so ``old`` is the rate its
        natives actually had before now.
        """
        pending = self._pending
        if not pending:
            return
        for link, old in pending:
            if link.share < old:
                if link.foreign:
                    self._absorb(link, now)
            elif link.natives and link.others_floor < link.share:
                self._expel(link, now, old)
        pending.clear()

    def _absorb(self, link: _Link, now: float) -> None:
        """After a share decrease: capture foreign flows now tighter here."""
        share = link.share
        moved: List[Flow] = []
        for f in link.foreign:
            home = f.home
            if share < home.share:
                moved.append(f)
            elif home.others_floor > share:
                # this link dropped below the bound cached by the flow's
                # home cohort; lower it so a later increase there scans
                home.others_floor = share
        for f in moved:
            home = f.home
            # The flow's rate drops from its home's level to ours, so an
            # eager update materializes at now: pending segments, then the
            # open partial at the old rate (home.share if the home was not
            # reshared this event; if it was, the replay drains to now and
            # the partial is empty). A decrease here never coincides with
            # an increase of the home inside one event (an arrival lowers,
            # a departure raises, every link it touches; a capacity change
            # touches links no single flow crosses together), so there is
            # no value-preserving case to skip, unlike in _expel.
            self._drain(f, now)
            self._remove_native(home, f)
            home.foreign[f] = None
            del link.foreign[f]
            self._insert_native(link, f, now)

    def _expel(self, link: _Link, now: float, old_share: float) -> None:
        """After a share increase: hand off natives now tighter elsewhere."""
        share = link.share
        keep: List[Flow] = []
        moved: List[Tuple[Flow, _Link]] = []
        floor = _INF
        for f in link.natives:
            other = self._runner_up(f)
            s = other.share
            if s < share:
                moved.append((f, other))
            else:
                keep.append(f)
                if s < floor:
                    floor = s
        link.others_floor = floor
        if not moved:
            return
        link.natives = keep  # removal preserves the survivors' sorted order
        stop = link.seg_base + len(link.segs) - 1
        for f, other in moved:
            if other.share == old_share:
                # the rate *value* is unchanged, so an eager update skips
                # this materialization: replay everything except the segment
                # just closed, keeping (t_last, remaining) spanning it — the
                # next product covers the whole constant-rate interval
                self._replay(f, stop)
            else:
                self._replay(f)
            link.foreign[f] = None
            del other.foreign[f]
            self._insert_native(other, f, now)
        self._dirty[link] = None

    def _flush_dirty(self, now: float) -> None:
        """End-of-event: settle switches, invalidate links, repush head ETAs."""
        self._settle(now)
        dirty = self._dirty
        if dirty:
            completions = self._completions
            for link in dirty:
                link.epoch += 1
                natives = link.natives
                if natives:
                    head = natives[0]
                    self._replay(head)
                    # t_last may lag now after a value-preserving switch; the
                    # ETA is the one an eager update pushed at that older
                    # materialization: t_last + remaining / share
                    ctime = head.t_last + head.remaining / link.share
                    self._push_seq += 1
                    heappush(completions, (ctime, self._push_seq, link.epoch, link))
            dirty.clear()
        self._arm_sentinel()

    # ------------------------------------------------------------------ #
    # completion sentinel
    # ------------------------------------------------------------------ #
    def _next_completion(self) -> Optional[Tuple[float, Flow]]:
        """Drop stale heap entries; ``(time, flow)`` of the earliest live one.

        An entry is stale when its link's epoch moved on or the link has no
        natives left; a live one stands for the cohort head.
        """
        heap = self._completions
        while heap:
            ctime, _, epoch, link = heap[0]
            if epoch == link.epoch and link.natives:
                return ctime, link.natives[0]
            heappop(heap)
        return None

    def _arm_sentinel(self) -> None:
        """Ensure one timer is pending at the earliest valid completion time.

        Lazy cancellation: if the armed timer targets a time at or before the
        heap head it is left alone (a too-early fire simply re-arms); if the
        head moved earlier, a fresh timer is armed and the generation bump
        makes the old one a no-op.
        """
        due = self._next_completion()
        if due is None:
            return
        t = due[0]
        if self._sentinel_time is not None and self._sentinel_time <= t:
            return
        self._sentinel_gen += 1
        self._sentinel_time = t
        env = self.env
        ev = Event(env)
        ev.callbacks.append(self._on_sentinel)
        env.schedule_at(ev, t, value=self._sentinel_gen)

    def _on_sentinel(self, ev: Event) -> None:
        if ev._value != self._sentinel_gen:
            return  # superseded by an earlier-armed sentinel
        self._sentinel_time = None
        due = self._next_completion()
        if due is None:
            return
        if due[0] <= self.env.now:
            # Complete exactly one flow; the rebalance it triggers re-arms
            # the sentinel (a tied completion fires again at the same time),
            # which keeps completion ordering identical to per-flow timers.
            heappop(self._completions)
            self._complete(due[1])
        else:
            self._arm_sentinel()

    def _complete(self, flow: Flow) -> None:
        del self._flows[flow]
        links = flow.links
        for link in links:
            link.n_flows -= 1
        self.metrics.add_traffic(flow.size, flow.kind)
        if flow.scope is not None:
            self.metrics.add_topo_traffic(flow.scope, flow.kind, flow.size)
        span = flow.span
        if span is not None:
            elapsed = self.env.now - span.t0
            if elapsed > 0.0:
                span.set(achieved_bw=flow.size / elapsed)
            span.finish()
            flow.span = None
        self._detach(flow)
        self._rebalance(links)
        # Last byte still pays propagation latency; deliver `done` directly.
        env = self.env
        env.schedule_at(flow.done, env.now + self.latency)
