"""A minimal RPC layer over the flow network.

Services are plain objects bound to a host under a name; methods prefixed
``rpc_`` are remotely callable and written as generators (they may perform
disk I/O, timeouts, or nested RPCs). A call from host A to host B pays:

1. the request control message (latency + serialization),
2. the server-side handler's simulated work,
3. the response: a control message, or a fair-shared bulk flow when the
   handler returns a :class:`~repro.common.payload.Payload` bigger than the
   network's message threshold (this is how chunk fetches become flows).

Handlers execute inline in the calling process — server-side contention is
still modelled faithfully because it lives in the server's *resources*
(its disk queue, its NIC), not in a scheduler thread.

**Timed reads.** A handler declared with :func:`timed_read` is not a
generator: it returns ``(service seconds, reply)`` for a read of immutable
state behind a fixed service time. Nothing between the start of such a call
and the arrival of a message-sized reply touches a queue, a flow or shared
state, so :func:`call` prices the whole exchange when it starts — first
contact, request, service, response, added left to right exactly as the
separate timeouts would — and waits for one event; :func:`gather` does the
same for a scatter of calls and wakes once, at the latest reply (DESIGN.md
§5 and §8). A reply too big for a message still rides the fabric as a flow.

Failure injection: ``host_down(host)`` makes every call to that host raise
:class:`~repro.common.errors.ProviderUnavailableError` after one timeout
interval, which the replication layer of the storage service exercises. A
callee is checked when the call starts and again after its handler ran; a
timed read, which has no instant of its own after the handler, is checked
when its reply lands instead.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, NamedTuple, Sequence, Set

from ..common.errors import ProviderUnavailableError, SimulationError
from ..common.payload import Payload
from .core import Event
from .host import Host

#: Simulated time a caller waits before declaring an unreachable host dead.
RPC_TIMEOUT = 0.5

#: Wire size assumed for an RPC request / non-payload response envelope.
REQUEST_BYTES = 256
RESPONSE_BYTES = 192

_down_hosts: "Set[str]" = set()


def host_down(host: Host) -> None:
    """Mark ``host`` as failed: subsequent RPCs to it raise (failure injection)."""
    _down_hosts.add(_key(host))


def host_up(host: Host) -> None:
    _down_hosts.discard(_key(host))


def reset_failures() -> None:
    _down_hosts.clear()


def is_host_down(host: Host) -> bool:
    """True while ``host`` is in the failure registry (crash injected)."""
    return bool(_down_hosts) and _key(host) in _down_hosts


def _key(host: Host) -> str:
    return f"{id(host.fabric)}:{host.name}"


class Sized:
    """Wrap an RPC result with an explicit wire size.

    Handlers return ``Sized(value, nbytes)`` when the response is a plain
    Python object whose serialized size should still be charged to the
    network (e.g. a batch of metadata tree nodes). ``rpc.call`` unwraps it.
    """

    __slots__ = ("value", "nbytes")

    def __init__(self, value: Any, nbytes: int):
        self.value = value
        self.nbytes = int(nbytes)


def bind(host: Host, name: str, service: object) -> None:
    """Register ``service`` under ``name`` on ``host``."""
    if name in host.services:
        raise SimulationError(f"{host.name}: service {name!r} already bound")
    host.services[name] = service


def timed_read(handler: Callable) -> Callable:
    """Declare ``rpc_<method>`` a *pure timed read*.

    Instead of a generator the handler is a plain method returning
    ``(service seconds, reply)``: the reply is a :class:`Sized` read of
    state that does not change once published, or an exception instance the
    server raises after the service time. It runs when the call starts.
    """
    handler.timed_read = True
    return handler


def _handler(callee: Host, service_name: str, method: str) -> Callable:
    """Bound ``rpc_<method>`` of a service on ``callee``.

    Dispatch is memoized per callee: the service dict probe + getattr with
    an f-string key is measurable at ~40k calls/run.
    """
    try:
        return callee._rpc_cache[(service_name, method)]
    except KeyError:
        service = callee.services.get(service_name)
        if service is None:
            raise SimulationError(f"{callee.name}: no service {service_name!r}")
        handler = getattr(service, f"rpc_{method}", None)
        if handler is None:
            raise SimulationError(f"{service_name}: no RPC method {method!r}")
        callee._rpc_cache[(service_name, method)] = handler
        return handler


def _first_contact(caller: Host, callee: Host) -> float:
    """Connection setup (TCP + service handshake) this call pays, if any.

    Charged once per ordered host pair, configured per fabric; the default
    0 keeps unit tests exact. Registers the pair and counts the connect.
    """
    fabric = caller.fabric
    setup = fabric.connection_setup
    if setup > 0.0 and caller is not callee:
        pairs = fabric._rpc_conn_pairs
        pair = (caller.name, callee.name)
        if pair not in pairs:
            pairs.add(pair)
            fabric.metrics.counters["rpc-connect"] += 1
            return setup
    return 0.0


def _timed_handler(callee: Host, service_name: str, method: str):
    """The handler if a call to it is priced up front, else ``None``.

    That takes a live callee (a dead one costs the caller a timeout) and a
    handler declared with :func:`timed_read`.
    """
    if _down_hosts and _key(callee) in _down_hosts:
        return None
    handler = _handler(callee, service_name, method)
    return handler if getattr(handler, "timed_read", False) else None


class _TimedLeg(NamedTuple):
    """One call to a timed read, priced when it started (:func:`_begin_timed`)."""

    callee: Host
    #: the instant the reply lands; or the instant the server starts
    #: streaming a reply too big for a message (``flow_bytes`` > 0); or the
    #: instant the server raises ``reply``
    when: float
    #: the unwrapped result, or the exception the server raises
    reply: Any
    flow_bytes: int
    #: the call's client span, recorded closed (None untraced)
    span: Any

    def fail(self, exc: BaseException, now: float) -> None:
        """The call failed at ``now``: its closed span ends there instead."""
        span = self.span
        if span is not None:
            span.set_error(exc)
            span.t1 = now

    def deliver(self, now: float) -> Any:
        """``when`` has come: the reply, if the callee is still there."""
        if _down_hosts and _key(self.callee) in _down_hosts:
            # Host died between the start of the call and this instant.
            exc = ProviderUnavailableError(f"{self.callee.name} failed during call")
            self.fail(exc, now)
            raise exc
        if isinstance(self.reply, BaseException):
            raise self.reply
        return self.reply


def _begin_timed(
    caller: Host, callee: Host, service_name: str, method: str,
    handler: Callable, args: Sequence, request_bytes: int,
) -> _TimedLeg:
    """Price one call to a timed read from ``env.now``; schedules nothing.

    Does at the start of the call what the stepwise form does along the
    way — counters, first-contact registration, wire accounting, the read
    itself — and adds the delays left to right (``t = t + d`` per leg of
    the exchange, never ``t + (d1 + d2)``): those are the additions the
    separate timeouts would perform on ``env.now``, so every instant below
    is the float the stepwise form reaches.
    """
    fabric = caller.fabric
    net = fabric.network
    if request_bytes > net.message_threshold:
        raise SimulationError(
            f"{service_name}.{method}: a timed read takes a message-sized request"
        )
    fabric.metrics.counters["rpc"] += 1
    t0 = caller.env.now
    t = t0 + _first_contact(caller, callee)
    t_request = t = t + net.message_delay(caller.nic, callee.nic, request_bytes, "rpc-request")
    seconds, reply = handler(caller, *args)
    t_served = t = t + seconds
    flow_bytes = 0
    if type(reply) is Sized:
        delay = net.transfer_delay(callee.nic, caller.nic, reply.nbytes, "rpc-response")
        if delay is None:
            flow_bytes = reply.nbytes
        else:
            t = t + delay
        reply = reply.value
    elif not isinstance(reply, BaseException):
        raise SimulationError(
            f"{service_name}.{method}: a timed read replies Sized or an exception"
        )
    tracer = fabric.tracer
    if not tracer.enabled:  # once per RPC, as in call()
        return _TimedLeg(callee, t, reply, flow_bytes, None)
    # no event fires at the interior instants: both spans go in closed
    span = tracer.record(
        f"rpc:{service_name}.{method}", "rpc", t0, t, src=caller.name, dst=callee.name
    )
    srv_span = tracer.record(
        f"serve:{service_name}.{method}", "rpc-server", t_request, t_served,
        parent=span, host=callee.name,
    )
    if isinstance(reply, BaseException):
        srv_span.set_error(reply)
    return _TimedLeg(callee, t, reply, flow_bytes, span)


def _finish_timed(caller: Host, leg: _TimedLeg) -> Generator[Event, None, Any]:
    """Wait out a leg priced by :func:`_begin_timed` and deliver its reply."""
    env = caller.env
    try:
        yield env.schedule_at(Event(env), leg.when)
        reply = leg.deliver(env.now)
        if leg.flow_bytes:
            net = caller.fabric.network
            yield net.transfer(leg.callee.nic, caller.nic, leg.flow_bytes, kind="rpc-response")
            if leg.span is not None:
                leg.span.t1 = env.now
        return reply
    except BaseException as exc:
        leg.fail(exc, env.now)
        raise


def call(
    caller: Host,
    callee: Host,
    service_name: str,
    method: str,
    *args: Any,
    request_bytes: int = REQUEST_BYTES,
) -> Generator[Event, None, Any]:
    """Invoke ``rpc_<method>`` of ``service_name`` on ``callee`` from ``caller``.

    Use as ``result = yield from rpc.call(...)`` inside a process.
    """
    handler = _timed_handler(callee, service_name, method)
    if handler is not None:
        result = yield from _finish_timed(
            caller,
            _begin_timed(caller, callee, service_name, method, handler, args, request_bytes),
        )
        return result
    fabric = caller.fabric
    net = fabric.network
    metrics = fabric.metrics
    env = caller.env
    metrics.counters["rpc"] += 1
    tracer = fabric.tracer
    span = None
    if tracer.enabled:
        span = tracer.start(
            f"rpc:{service_name}.{method}", "rpc", src=caller.name, dst=callee.name
        )
    try:
        # The failure registry is empty in the vast majority of runs; skip the
        # per-call key construction + hash unless failures were injected.
        if _down_hosts and _key(callee) in _down_hosts:
            yield env.timeout(RPC_TIMEOUT)
            raise ProviderUnavailableError(f"{callee.name} unreachable")

        setup = _first_contact(caller, callee)
        if setup:
            yield env.timeout(setup)

        # 1. request envelope; bulk requests (e.g. chunk PUTs) ride the fabric
        if request_bytes > net.message_threshold:
            yield net.transfer(caller.nic, callee.nic, request_bytes, kind="payload")
        else:
            yield net.message(caller.nic, callee.nic, request_bytes, kind="rpc-request")

        # 2. server-side handler
        handler = _handler(callee, service_name, method)
        if span is None:  # once per RPC: no null span (DESIGN.md §9)
            result = yield from handler(caller, *args)
        else:
            with tracer.start(f"serve:{service_name}.{method}", "rpc-server", host=callee.name):
                result = yield from handler(caller, *args)

        if _down_hosts and _key(callee) in _down_hosts:
            # Host died while serving (failure injected mid-call).
            raise ProviderUnavailableError(f"{callee.name} failed during call")

        # 3. response: bulk payloads ride the fair-shared fabric
        if isinstance(result, Sized):
            yield net.transfer(callee.nic, caller.nic, result.nbytes, kind="rpc-response")
            return result.value
        if isinstance(result, Payload) and result.size > net.message_threshold:
            yield net.transfer(callee.nic, caller.nic, result.size, kind="payload")
        else:
            size = result.size if isinstance(result, Payload) else RESPONSE_BYTES
            yield net.message(callee.nic, caller.nic, max(size, 1), kind="rpc-response")
        return result
    except BaseException as exc:
        if span is not None:
            span.set_error(exc)
        raise
    finally:
        if span is not None:
            span.finish()


def gather(caller: Host, calls: Sequence[tuple]) -> Generator[Event, None, List[Any]]:
    """Scatter ``calls`` from ``caller`` and wait for all: results in call order.

    Each call is ``(callee, service_name, method, *args)`` with the default
    request size. When every call is a timed read whose reply lands as a
    message, the scatter is priced leg by leg when it starts and the caller
    wakes once, at the latest reply — ``max`` over instants each computed as
    in :func:`call`. Otherwise the legs run as parallel processes and the
    first failure fails the gather (a single leg runs inline).
    """
    env = caller.env
    legs: list = []  # a _TimedLeg, or the generator of a call to be stepped
    stepped = False  # some leg takes more than waiting for its instant
    when = env.now
    for callee, service_name, method, *args in calls:
        handler = _timed_handler(callee, service_name, method)
        if handler is None:
            legs.append(call(caller, callee, service_name, method, *args))
            stepped = True
            continue
        leg = _begin_timed(caller, callee, service_name, method, handler, args, REQUEST_BYTES)
        legs.append(leg)
        if leg.flow_bytes or isinstance(leg.reply, BaseException):
            stepped = True
        elif leg.when > when:
            when = leg.when
    if not legs:
        return []
    if not stepped:
        try:
            yield env.schedule_at(Event(env), when)
        except BaseException as exc:  # interrupted on the way
            for leg in legs:
                leg.fail(exc, env.now)
            raise
        return [leg.deliver(env.now) for leg in legs]
    gens = [_finish_timed(caller, g) if type(g) is _TimedLeg else g for g in legs]
    if len(gens) == 1:
        result = yield from gens[0]
        return [result]
    results = yield env.all_of(env.process_batch(gens))
    return results


def send_payload(
    sender: Host, receiver: Host, payload_bytes: int, kind: str = "payload"
) -> Generator[Event, None, None]:
    """One-way bulk push (used by writes: client streams a chunk to a provider)."""
    net = sender.fabric.network
    yield net.transfer(sender.nic, receiver.nic, payload_bytes, kind=kind)
