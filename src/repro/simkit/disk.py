"""Local-disk and page-cache models.

The paper's compute nodes have commodity SATA disks (~55 MB/s measured).
Two layers are modelled:

* :class:`Disk` — the raw device: a single-served FIFO queue where an
  operation costs ``seek (if random) + size / bandwidth``. This is what the
  repository providers, the broadcast receivers and the mirror's local file
  pay when they actually hit the platter.

* :class:`FileDevice` — a host file-access path *through the kernel page
  cache*, parameterized by a write policy. This is what the Bonnie++
  experiment (Figs. 6 and 7) exercises: the paper's headline observation is
  that the mirror's ``mmap``-based local file triggers the kernel's
  asynchronous write-back and roughly doubles effective write throughput over
  the default hypervisor file path, while FUSE's user/kernel context switches
  add a fixed per-operation CPU cost that shows up in the ops/s metrics.

  We model exactly those two effects: a policy-dependent cache-absorption
  bandwidth for writes (with a dirty budget drained at disk speed in the
  background) and a per-operation overhead added by the FUSE path.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..common.units import MB, MILLISECONDS
from .core import Environment, Event, Timeout
from .resources import Resource
from .trace import Metrics


#: bytes the page-cache flusher writes back per disk operation
FLUSH_QUANTUM = 4 * MB


class Disk:
    """Raw block device with FIFO queueing and a sequential/random cost model."""

    def __init__(
        self,
        env: Environment,
        name: str,
        read_bandwidth: float = 55 * MB,
        write_bandwidth: float = 55 * MB,
        seek_time: float = 8 * MILLISECONDS,
        metrics: Optional[Metrics] = None,
    ):
        self.env = env
        self.name = name
        self.read_bandwidth = read_bandwidth
        self.write_bandwidth = write_bandwidth
        self.seek_time = seek_time
        self.metrics = metrics
        self._base_read_bandwidth = read_bandwidth
        self._base_write_bandwidth = write_bandwidth
        self._stall_factor = 1.0
        self._queue = Resource(env, capacity=1)
        # counter keys hoisted out of the per-I/O hot path
        self._keys = {
            "read": ("disk-read", "disk-read-bytes"),
            "write": ("disk-write", "disk-write-bytes"),
        }

    def _io(self, nbytes: int, bandwidth: float, sequential: bool, kind: str):
        # Uncontended fast path: grab the free queue slot synchronously so
        # the acquisition costs no event (the common case outside the
        # contention regimes, where the FIFO below takes over).
        if not self._queue.try_acquire():
            yield self._queue.request()
        try:
            yield Timeout(self.env, self._duration(nbytes, bandwidth, sequential))
            self._account(kind, nbytes)
        finally:
            self._queue.release()

    def _duration(self, nbytes: int, bandwidth: float, sequential: bool) -> float:
        duration = nbytes / bandwidth
        if not sequential:
            duration += self.seek_time
        return duration

    def _account(self, kind: str, nbytes: int) -> None:
        metrics = self.metrics
        if metrics is not None:
            count_key, bytes_key = self._keys[kind]
            counters = metrics.counters
            counters[count_key] += 1
            counters[bytes_key] += nbytes

    def read(self, nbytes: int, sequential: bool = True) -> Generator[Event, None, None]:
        """Process-style: ``yield from disk.read(n)`` blocks for the I/O time."""
        return self._io(nbytes, self.read_bandwidth, sequential, "read")

    def write(self, nbytes: int, sequential: bool = True) -> Generator[Event, None, None]:
        return self._io(nbytes, self.write_bandwidth, sequential, "write")

    def submit_write(
        self, nbytes: int, done: Callable[[int], None], sequential: bool = True
    ) -> None:
        """Callback-style :meth:`write`: ``done(nbytes)`` runs once it is on disk.

        For background activities that are not processes (the page-cache
        flusher). Same queue, pricing and accounting as :meth:`write`; like
        it, the operation is priced at the bandwidth current when it is
        submitted, however long it then waits in the queue. An idle disk
        costs one event, a busy one the queue grant plus the I/O timer.
        """
        duration = self._duration(nbytes, self.write_bandwidth, sequential)
        if self._queue.try_acquire():
            self._start_write(duration, nbytes, done)
        else:
            self._queue.request().callbacks.append(
                lambda _granted: self._start_write(duration, nbytes, done)
            )

    def _start_write(self, duration: float, nbytes: int, done: Callable[[int], None]) -> None:
        # the timer carries its context: no closure per operation
        Timeout(self.env, duration, (nbytes, done)).callbacks.append(self._write_done)

    def _write_done(self, timer: Event) -> None:
        nbytes, done = timer._value
        self._account("write", nbytes)
        self._queue.release()
        done(nbytes)

    @property
    def queue_length(self) -> int:
        return self._queue.queue_length

    # ------------------------------------------------------------------ #
    # fault injection
    # ------------------------------------------------------------------ #
    def stall(self, factor: float) -> None:
        """Degrade both bandwidths by ``factor`` (fault injection: disk stall).

        Affects operations *priced after* the call — an I/O already in the
        device queue completes at its original rate, like a request the
        controller has already accepted.
        """
        if factor < 1.0:
            raise ValueError(f"stall factor must be >= 1, got {factor}")
        self._stall_factor = factor
        self.read_bandwidth = self._base_read_bandwidth / factor
        self.write_bandwidth = self._base_write_bandwidth / factor

    def unstall(self) -> None:
        """Restore the calibrated bandwidths after a :meth:`stall`."""
        self._stall_factor = 1.0
        self.read_bandwidth = self._base_read_bandwidth
        self.write_bandwidth = self._base_write_bandwidth

    @property
    def stalled(self) -> bool:
        return self._stall_factor != 1.0


class WritePolicy:
    """Parameters of one file-access path through the page cache."""

    def __init__(
        self,
        name: str,
        write_absorb_bandwidth: float,
        cached_read_bandwidth: float,
        per_op_overhead: float,
        dirty_budget: int,
        data_op_overhead: float | None = None,
    ):
        #: label for reports ("hypervisor-default", "mirror-mmap")
        self.name = name
        #: rate at which writes enter the cache while the dirty budget holds
        self.write_absorb_bandwidth = write_absorb_bandwidth
        #: rate for reads served from cache (copy + syscall path)
        self.cached_read_bandwidth = cached_read_bandwidth
        #: fixed CPU cost per *metadata* operation (context switches)
        self.per_op_overhead = per_op_overhead
        #: fixed CPU cost per *data* operation (amortized by readahead /
        #: request merging; defaults to the metadata cost when not split)
        self.data_op_overhead = (
            data_op_overhead if data_op_overhead is not None else per_op_overhead
        )
        #: dirty bytes tolerated before writers are throttled to disk speed
        self.dirty_budget = dirty_budget


class FileDevice:
    """A file opened on a host through the page cache under a write policy.

    Tracks the cached byte set coarsely (fully-cached-up-to watermarks are
    enough for the sequential Bonnie++ phases) and a dirty counter drained by
    a background flusher at disk speed.
    """

    def __init__(self, env: Environment, disk: Disk, policy: WritePolicy, size: int):
        self.env = env
        self.disk = disk
        self.policy = policy
        self.size = size
        self.dirty = 0
        self._cached_bytes = 0
        self._flusher_active = False
        #: writes between entry and their ``dirty`` update
        self._writers = 0

    # ------------------------------------------------------------------ #
    def write(self, nbytes: int) -> Generator[Event, None, None]:
        """Write ``nbytes`` through the cache (throttled past the dirty budget)."""
        env = self.env
        policy = self.policy
        self._writers += 1
        try:
            if self._writers == 1 and self.dirty + nbytes <= policy.dirty_budget:
                # The budget check below happens after the per-op cost, but
                # its outcome is known now: only a write raises ``dirty``,
                # none is in flight, and one that starts later also ends
                # later. Nothing else sits between the two delays, so they
                # are one event at the instant the two timeouts reach.
                served = env.now + policy.data_op_overhead
                yield env.schedule_at(
                    Event(env), served + nbytes / policy.write_absorb_bandwidth
                )
            else:
                yield env.timeout(policy.data_op_overhead)
                if self.dirty + nbytes <= policy.dirty_budget:
                    yield env.timeout(nbytes / policy.write_absorb_bandwidth)
                else:
                    # Over budget: the writer effectively runs at drain
                    # (disk) speed.
                    yield env.timeout(nbytes / self.disk.write_bandwidth)
        finally:
            self._writers -= 1
        self.dirty += nbytes
        self._cached_bytes = min(self.size, self._cached_bytes + nbytes)
        self._ensure_flusher()

    def read(self, nbytes: int, cached: bool) -> Generator[Event, None, None]:
        """Read ``nbytes``; ``cached`` says whether the page cache holds them."""
        if cached:
            # Per-op cost + copy-out in one timeout: the two delays are
            # consecutive with no observable state in between, so merging
            # them is timeline-exact and halves the events per cached read.
            policy = self.policy
            yield Timeout(
                self.env,
                policy.data_op_overhead + nbytes / policy.cached_read_bandwidth,
            )
        else:
            yield Timeout(self.env, self.policy.data_op_overhead)
            yield from self.disk.read(nbytes, sequential=True)

    def metadata_op(self) -> Generator[Event, None, None]:
        """A create/delete/seek-class operation: pure per-op cost."""
        yield self.env.timeout(self.policy.per_op_overhead)

    def sync(self) -> Generator[Event, None, None]:
        """Block until all dirty bytes have been flushed to disk."""
        while self.dirty > 0:
            yield self.env.timeout(self.dirty / self.disk.write_bandwidth)
            # the flusher drains concurrently; loop until it caught up
            if self.dirty > 0 and not self._flusher_active:
                self._ensure_flusher()

    # ------------------------------------------------------------------ #
    def _ensure_flusher(self) -> None:
        if not self._flusher_active and self.dirty > 0:
            self._flusher_active = True
            self._flush_quantum()

    def _flush_quantum(self) -> None:
        """Background write-back: one quantum per disk write until clean."""
        self.disk.submit_write(min(self.dirty, FLUSH_QUANTUM), self._quantum_flushed)

    def _quantum_flushed(self, batch: int) -> None:
        self.dirty -= batch
        if self.dirty > 0:
            self._flush_quantum()
        else:
            self._flusher_active = False
