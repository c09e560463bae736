"""Shared-resource primitives: FIFO resources, bounded queues, bandwidth.

These are the contention points of the simulated machine. All waiting is
strictly FIFO so results are deterministic given a deterministic event
ordering (which :mod:`repro.sim.engine` guarantees: time, then FIFO).

Every wait has an Event form for generator processes (``acquire``,
``put``, ``get``, ``transfer``) and a call-slot form for a continuation
that is the wait's only waiter (``acquire_then``, ``put_then``,
``get_then``, ``transfer_then``). The call slot lands exactly where the
Event would fire, so the two forms are interchangeable slot for slot;
waiters of both forms share one FIFO and one admission path.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, Union

from repro.sim.engine import Environment, Event, SimulationError

#: Who waits on a Resource or Store operation: an Event (a generator
#: process yields it) or a continuation called from a bare call slot.
Waiter = Union[Event, Callable[[Any], None]]


class Resource:
    """A FIFO resource with integer capacity (e.g. stream-engine ports).

    Usage inside a process::

        grant = yield resource.acquire()
        try:
            yield env.timeout(10)
        finally:
            resource.release()

    A continuation that is the grant's only waiter uses
    :meth:`acquire_then` instead. Both forms queue in one FIFO.
    """

    def __init__(self, env: Environment, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1: {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._acquire_name = f"acquire:{name}"
        self._in_use = 0
        #: Waiting grants: Events or bare continuations, oldest first.
        self._waiters: deque[Waiter] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of acquire requests waiting."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that fires when a slot is granted."""
        grant = Event(self.env, self._acquire_name)
        self.acquire_then(grant)
        return grant

    def acquire_then(self, then: Waiter) -> None:
        """Call ``then(self)`` from a call slot once a slot is granted.

        The slot lands where :meth:`acquire`'s Event would. ``then`` may
        also be an Event, which succeeds with ``self`` instead — that is
        how :meth:`acquire` waits.
        """
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            self.env._wake(then, self)
        else:
            self._waiters.append(then)

    def release(self) -> None:
        """Release one held slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        if self._waiters:
            # The slot transfers directly.
            self.env._wake(self._waiters.popleft(), self)
        else:
            self._in_use -= 1


class Store:
    """A bounded FIFO queue with blocking put/get — the pipelined-stream
    backbone.

    A producer task pushing chunks into a full Store blocks (backpressure);
    a consumer popping from an empty Store blocks. Capacity is in abstract
    items (the stream layer uses one item per chunk).

    A Store can be *closed* by the producer; after the queued items drain,
    pending and future ``get`` calls receive :data:`Store.END`.

    Each operation has two forms. ``put``/``get`` return an Event for a
    generator process to yield. ``put_then``/``get_then`` take the
    continuation that is the operation's only waiter and call it from a
    bare call slot at the queue position the Event would take. Both forms
    wait in the same FIFOs and are admitted by the same code, so mixing
    them keeps the order and the timing.
    """

    END = object()

    def __init__(self, env: Environment, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"Store capacity must be >= 1: {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._put_name = f"put:{name}"
        self._get_name = f"get:{name}"
        self._items: deque[Any] = deque()
        #: Blocked puts as (waiter, item) and blocked gets, oldest first;
        #: a waiter is an Event or a bare continuation.
        self._putters: deque[tuple[Waiter, Any]] = deque()
        self._getters: deque[Waiter] = deque()
        self._closed = False
        self.total_put = 0

    @property
    def level(self) -> int:
        """Number of items currently buffered."""
        return len(self._items)

    @property
    def closed(self) -> bool:
        """True once the producer has closed the stream."""
        return self._closed

    def put(self, item: Any) -> Event:
        """Return an event that fires when ``item`` has been enqueued."""
        done = Event(self.env, self._put_name)
        self.put_then(item, done)
        return done

    def put_then(self, item: Any, then: Waiter) -> None:
        """Enqueue ``item``; call ``then(None)`` from a call slot once it
        is in. ``then`` may also be an Event, which succeeds instead."""
        if self._closed:
            raise SimulationError(f"put() on closed store {self.name!r}")
        wake = self.env._wake
        if self._getters:
            # Hand the item straight to the oldest waiting consumer.
            wake(self._getters.popleft(), item)
            self.total_put += 1
            wake(then)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            self.total_put += 1
            wake(then)
        else:
            self._putters.append((then, item))

    def get(self) -> Event:
        """Return an event that fires with the next item (or END)."""
        got = Event(self.env, self._get_name)
        self.get_then(got)
        return got

    def get_then(self, then: Waiter) -> None:
        """Call ``then(item)`` from a call slot with the next item (or
        END). ``then`` may also be an Event, which succeeds instead."""
        if self._items:
            self.env._wake(then, self._items.popleft())
            self._admit_waiting_putter()
        elif self._closed and not self._putters:
            self.env._wake(then, Store.END)
        else:
            self._getters.append(then)

    def drain(self) -> Event:
        """Consume items until END; return the Event that fires then.

        Unconsumed input tokens must be drained so that a producer blocked
        on a full store always makes progress. The chain takes a bootstrap
        call slot at ``now``, one slot per item and the returned Event:
        the slots a process looping on :meth:`get` would take.
        """
        done = Event(self.env, "drain")

        def on_item(item: Any) -> None:
            if item is Store.END:
                done.succeed()
            else:
                self.get_then(on_item)

        self.env._schedule_call(lambda _arg: self.get_then(on_item))
        return done

    def peek(self) -> Any:
        """The oldest buffered item without removing it (None if empty).

        Used by schedulers that inspect queue heads (e.g. prefetching the
        next task's inputs) without consuming the entry.
        """
        return self._items[0] if self._items else None

    def pop_newest(self) -> Any:
        """Remove and return the *newest* buffered item.

        The work-stealing path takes from the tail (the classic deque
        discipline: thieves steal the coldest work). Raises
        :class:`SimulationError` when nothing is buffered. Any waiting
        putter is admitted into the freed slot.
        """
        if not self._items:
            raise SimulationError(f"pop_newest() on empty store {self.name!r}")
        item = self._items.pop()
        self._admit_waiting_putter()
        return item

    def close(self) -> None:
        """Close the stream; drained getters receive END."""
        if self._closed:
            return
        self._closed = True
        # Only wake getters if nothing remains to deliver.
        if not self._items and not self._putters:
            self._end_getters()

    def _admit_waiting_putter(self) -> None:
        if self._putters:
            then, item = self._putters.popleft()
            self._items.append(item)
            self.total_put += 1
            self.env._wake(then)
        elif self._closed and not self._items:
            self._end_getters()

    def _end_getters(self) -> None:
        wake = self.env._wake
        while self._getters:
            wake(self._getters.popleft(), Store.END)


class BandwidthServer:
    """A FIFO serialization server modeling a fixed-rate channel.

    Models links and DRAM channels: a transfer of ``nbytes`` occupies the
    channel for ``nbytes / bytes_per_cycle`` cycles, transfers are served
    in arrival order, and each completed transfer additionally experiences
    a fixed pipe ``latency``. This is the standard "rate + latency" channel
    abstraction; queueing delay under contention is emergent.

    The implementation is O(1) per transfer: we track when the channel next
    becomes free instead of simulating per-cycle occupancy.
    """

    def __init__(self, env: Environment, bytes_per_cycle: float,
                 latency: float = 0.0, name: str = "") -> None:
        if bytes_per_cycle <= 0:
            raise SimulationError(
                f"bytes_per_cycle must be positive: {bytes_per_cycle}")
        if latency < 0:
            raise SimulationError(f"latency must be non-negative: {latency}")
        self.env = env
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency
        self.name = name
        self._next_free = 0.0
        self.total_bytes = 0
        self.total_transfers = 0
        self._busy_cycles = 0.0

    def transfer(self, nbytes: float) -> Event:
        """Return an event firing when ``nbytes`` have been delivered."""
        return self.env.timeout(self.reserve(nbytes) - self.env.now)

    def transfer_then(self, nbytes: float,
                      then: Callable[[Any], None]) -> None:
        """Book a transfer and call ``then(None)`` once it is delivered.

        The call-slot form of :meth:`transfer` for a continuation that is
        the transfer's only waiter. The slot lands at ``now + (finish -
        now)`` — the float the Timeout would compute, not ``finish`` — so
        it takes exactly the queue position the Timeout would, without
        allocating it.
        """
        now = self.env.now
        finish = self.reserve(nbytes)
        self.env._schedule_call(then, None, now + (finish - now))

    def reserve(self, nbytes: float) -> float:
        """Book a transfer and return its absolute delivery time.

        Identical channel bookkeeping to :meth:`transfer` without creating
        an event — the closed-form NoC delivery uses this and places its
        own completion slot at the returned time.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        start = self._next_free
        now = self.env.now
        if now > start:
            start = now
        service = nbytes / self.bytes_per_cycle
        finish = start + service
        self._next_free = finish
        self._busy_cycles += service
        self.total_bytes += nbytes
        self.total_transfers += 1
        return finish + self.latency

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time busy over ``elapsed`` (default: env.now)."""
        horizon = self.env.now if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy_cycles / horizon)

    @property
    def backlog_cycles(self) -> float:
        """Cycles until the channel would go idle if no more work arrives."""
        return max(0.0, self._next_free - self.env.now)
