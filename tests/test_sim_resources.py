"""Unit tests for Resource, Store, and BandwidthServer."""

import pytest

from repro.arch.noc import Noc
from repro.sim import (
    BandwidthServer,
    Counters,
    Environment,
    Resource,
    SimulationError,
    Store,
)


# ---------------------------------------------------------------- Resource

def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    order = []

    def worker(tag, hold):
        yield res.acquire()
        order.append((tag, "in", env.now))
        yield env.timeout(hold)
        res.release()
        order.append((tag, "out", env.now))

    env.process(worker("a", 10))
    env.process(worker("b", 10))
    env.process(worker("c", 10))
    env.run()
    entries = [(tag, t) for tag, what, t in order if what == "in"]
    assert entries == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    admitted = []

    def worker(tag):
        yield res.acquire()
        admitted.append(tag)
        yield env.timeout(1)
        res.release()

    for tag in range(5):
        env.process(worker(tag))
    env.run()
    assert admitted == [0, 1, 2, 3, 4]


def test_resource_release_idle_is_error():
    env = Environment()
    res = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_counts():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        yield res.acquire()
        yield env.timeout(5)
        res.release()

    def waiter():
        yield env.timeout(1)
        yield res.acquire()
        res.release()

    env.process(holder())
    env.process(waiter())
    env.run(until=2)
    assert res.in_use == 1
    assert res.queued == 1
    env.run()
    assert res.in_use == 0


# ------------------------------------------------------------------- Store

def test_store_put_get_order():
    env = Environment()
    store = Store(env, capacity=4)
    received = []

    def producer():
        for i in range(3):
            yield store.put(i)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == [0, 1, 2]


def test_store_backpressure_blocks_producer():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        for i in range(3):
            yield store.put(i)
            log.append(("put", i, env.now))

    def consumer():
        for _ in range(3):
            yield env.timeout(10)
            item = yield store.get()
            log.append(("got", item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    puts = [(i, t) for what, i, t in log if what == "put"]
    # First put succeeds immediately; the rest wait for consumer drains.
    assert puts[0] == (0, 0)
    assert puts[1] == (1, 10)
    assert puts[2] == (2, 20)


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env, capacity=2)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, env.now))

    def producer():
        yield env.timeout(7)
        yield store.put("x")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [("x", 7)]


def test_store_close_delivers_end_after_drain():
    env = Environment()
    store = Store(env, capacity=4)
    seen = []

    def producer():
        yield store.put(1)
        yield store.put(2)
        store.close()

    def consumer():
        while True:
            item = yield store.get()
            if item is Store.END:
                seen.append("end")
                break
            seen.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert seen == [1, 2, "end"]


def test_store_close_wakes_blocked_getter():
    env = Environment()
    store = Store(env, capacity=1)
    seen = []

    def consumer():
        item = yield store.get()
        seen.append(item)

    def closer():
        yield env.timeout(3)
        store.close()

    env.process(consumer())
    env.process(closer())
    env.run()
    assert seen == [Store.END]


def test_store_put_after_close_is_error():
    env = Environment()
    store = Store(env, capacity=1)
    store.close()
    with pytest.raises(SimulationError):
        store.put(1)


def test_store_multiple_gets_after_close():
    env = Environment()
    store = Store(env, capacity=1)
    store.close()
    results = []

    def consumer():
        a = yield store.get()
        b = yield store.get()
        results.extend([a, b])

    env.process(consumer())
    env.run()
    assert results == [Store.END, Store.END]


def test_store_counts_total_puts():
    env = Environment()
    store = Store(env, capacity=8)

    def producer():
        for i in range(5):
            yield store.put(i)

    def consumer():
        for _ in range(5):
            yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert store.total_put == 5


# -------------------------------------------------------- BandwidthServer

def test_bandwidth_single_transfer_time():
    env = Environment()
    chan = BandwidthServer(env, bytes_per_cycle=4, latency=10)
    done_at = []

    def proc():
        yield chan.transfer(64)
        done_at.append(env.now)

    env.process(proc())
    env.run()
    assert done_at == [64 / 4 + 10]


def test_bandwidth_serializes_contending_transfers():
    env = Environment()
    chan = BandwidthServer(env, bytes_per_cycle=1, latency=0)
    finish = {}

    def proc(tag):
        yield chan.transfer(10)
        finish[tag] = env.now

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    assert finish == {"a": 10, "b": 20}


def test_bandwidth_idle_gap_not_counted():
    env = Environment()
    chan = BandwidthServer(env, bytes_per_cycle=2, latency=0)

    def proc():
        yield chan.transfer(20)   # busy 10 cycles
        yield env.timeout(90)     # idle
        yield chan.transfer(20)   # busy 10 more

    env.process(proc())
    env.run()
    assert env.now == 110
    assert chan.utilization() == pytest.approx(20 / 110)
    assert chan.total_bytes == 40
    assert chan.total_transfers == 2


def test_bandwidth_call_slot_and_timeout_fire_in_booking_order():
    """A ``transfer_then`` completion takes the queue position of the
    Timeout ``transfer()`` allocates: same-cycle completions fire in
    booking order. The channels are still busy when the transfers are
    booked, so ``now + (finish - now)`` rounds below ``finish`` — a slot
    placed at ``finish`` would fire after the Timeout."""
    env = Environment()
    chans = [BandwidthServer(env, bytes_per_cycle=1) for _ in range(3)]
    fired = []

    def record(tag):
        return lambda _arg: fired.append((tag, env.now))

    def proc():
        for chan in chans:
            chan.transfer(0.11)  # busy until 0.11
        yield env.timeout(0.1)
        chans[0].transfer_then(0.3, record("a"))
        chans[1].transfer(0.3).add_callback(record("b"))
        chans[2].transfer_then(0.3, record("c"))

    env.process(proc())
    env.run()
    finish = 0.11 + 0.3
    at = 0.1 + (finish - 0.1)
    assert at < finish
    assert fired == [("a", at), ("b", at), ("c", at)]
    assert [chan.total_transfers for chan in chans] == [2, 2, 2]


def test_bandwidth_zero_byte_transfer_only_latency():
    env = Environment()
    chan = BandwidthServer(env, bytes_per_cycle=8, latency=5)
    done_at = []

    def proc():
        yield chan.transfer(0)
        done_at.append(env.now)

    env.process(proc())
    env.run()
    assert done_at == [5]


def test_bandwidth_invalid_params():
    env = Environment()
    with pytest.raises(SimulationError):
        BandwidthServer(env, bytes_per_cycle=0)
    with pytest.raises(SimulationError):
        BandwidthServer(env, bytes_per_cycle=1, latency=-1)
    chan = BandwidthServer(env, bytes_per_cycle=1)
    with pytest.raises(SimulationError):
        chan.transfer(-5)


def test_bandwidth_backlog_reporting():
    env = Environment()
    chan = BandwidthServer(env, bytes_per_cycle=1, latency=0)

    def proc():
        chan.transfer(100)
        assert chan.backlog_cycles == 100
        yield env.timeout(40)
        assert chan.backlog_cycles == 60

    env.process(proc())
    env.run()


def test_store_peek_nondestructive():
    env = Environment()
    store = Store(env, capacity=4)

    def producer():
        yield store.put("a")
        yield store.put("b")

    env.process(producer())
    env.run()
    assert store.peek() == "a"
    assert store.level == 2  # unchanged


def test_store_peek_empty_returns_none():
    env = Environment()
    assert Store(env, capacity=1).peek() is None


def test_store_pop_newest_takes_tail():
    env = Environment()
    store = Store(env, capacity=4)

    def producer():
        for item in ("a", "b", "c"):
            yield store.put(item)

    env.process(producer())
    env.run()
    assert store.pop_newest() == "c"
    assert store.level == 2
    assert store.peek() == "a"


def test_store_pop_newest_empty_is_error():
    env = Environment()
    with pytest.raises(SimulationError):
        Store(env, capacity=1).pop_newest()


def test_store_pop_newest_admits_waiting_putter():
    env = Environment()
    store = Store(env, capacity=1)
    done = []

    def producer():
        yield store.put("first")
        yield store.put("second")  # blocks on capacity
        done.append(env.now)

    env.process(producer())
    env.run()
    assert store.pop_newest() == "first"
    env.run()
    assert done and store.peek() == "second"


# ------------------------------------------- call-slot forms of the waits

def test_store_fifo_across_event_and_call_slot_getters():
    """Blocked gets of both forms are served in arrival order, and each
    wakes in the slot its put places: same-cycle wakes keep that order."""
    env = Environment()
    store = Store(env, capacity=2)
    fired = []

    def event_getter(tag):
        item = yield store.get()
        fired.append((tag, item))

    def slot_getter(tag):
        store.get_then(lambda item: fired.append((tag, item)))

    env.process(event_getter("a"))
    env._schedule_call(lambda _arg: slot_getter("b"))
    env.process(event_getter("c"))
    env._schedule_call(lambda _arg: slot_getter("d"))
    env.run()
    assert fired == []
    for item in (1, 2, 3, 4):
        store.put_then(item, lambda _arg: None)
    env.run()
    assert fired == [("a", 1), ("b", 2), ("c", 3), ("d", 4)]


def test_store_fifo_across_event_and_call_slot_putters():
    """Blocked puts of both forms are admitted in arrival order as a
    consumer frees slots; each putter wakes once its item is in."""
    env = Environment()
    store = Store(env, capacity=1)
    admitted, got = [], []
    store.put_then("x", lambda _arg: admitted.append("x"))

    def event_putter(item):
        yield store.put(item)
        admitted.append(item)

    env._schedule_call(
        lambda _arg: store.put_then("a", lambda _a: admitted.append("a")))
    env.process(event_putter("b"))
    env._schedule_call(
        lambda _arg: store.put_then("c", lambda _a: admitted.append("c")))
    env.run()
    assert admitted == ["x"]

    def consumer():
        for _ in range(4):
            got.append((yield store.get()))
            yield env.timeout(1)

    env.process(consumer())
    env.run()
    assert got == ["x", "a", "b", "c"]
    assert admitted == ["x", "a", "b", "c"]
    assert store.total_put == 4


def test_store_close_delivers_end_to_call_slot_getters_in_order():
    env = Environment()
    store = Store(env, capacity=2)
    fired = []

    def event_getter(tag):
        item = yield store.get()
        fired.append((tag, item is Store.END))

    store.get_then(lambda item: fired.append(("a", item is Store.END)))
    env.process(event_getter("b"))
    env._schedule_call(lambda _arg: store.get_then(
        lambda item: fired.append(("c", item is Store.END))))
    env.run()
    store.close()
    env.run()
    assert fired == [("a", True), ("b", True), ("c", True)]
    # A get after the close is answered at once, from a call slot.
    store.get_then(lambda item: fired.append(("d", item is Store.END)))
    assert fired[-1][0] == "c"
    env.run()
    assert fired[-1] == ("d", True)


def test_store_pop_newest_admits_call_slot_putter():
    env = Environment()
    store = Store(env, capacity=1)
    admitted = []
    store.put_then("first", lambda _arg: admitted.append(("first", env.now)))
    store.put_then("second",
                   lambda _arg: admitted.append(("second", env.now)))
    env.run()
    assert admitted == [("first", 0)] and store.level == 1
    env._schedule_call(lambda _arg: admitted.append(
        ("popped", store.pop_newest())), at=3)
    env.run()
    assert admitted == [("first", 0), ("popped", "first"), ("second", 3)]
    assert store.peek() == "second" and store.total_put == 2


def test_store_drain_consumes_to_end_in_process_slots():
    """``drain`` takes a bootstrap slot, one slot per item and its
    completion Event: the slots of a process looping on ``get``."""
    def run(drain):
        env = Environment()
        store = Store(env, capacity=4)
        for item in range(3):
            store.put(item)
        store.close()
        env.run()
        start = env.events_processed
        done = drain(env, store)
        env.run()
        assert done.triggered and store.level == 0
        return env.events_processed - start

    def by_process(env, store):
        def loop():
            while (yield store.get()) is not Store.END:
                pass
        return env.process(loop())

    assert run(lambda env, store: store.drain()) == run(by_process) == 6


def test_acquire_then_and_acquire_granted_in_booking_order():
    """Same-cycle grants of both forms fire in booking order, whether
    granted at once or after a release."""
    env = Environment()
    res = Resource(env, capacity=3)
    fired = []

    def record(tag):
        return lambda _arg: fired.append((tag, env.now))

    res.acquire_then(record("a"))
    res.acquire().add_callback(record("b"))
    res.acquire_then(record("c"))
    # Full: the next three queue, in booking order, for the releases.
    res.acquire().add_callback(record("d"))
    res.acquire_then(record("e"))
    res.acquire().add_callback(record("f"))
    assert res.queued == 3
    env._schedule_call(lambda _arg: [res.release() for _ in range(3)],
                       at=2)
    env.run()
    assert fired == [("a", 0), ("b", 0), ("c", 0),
                     ("d", 2), ("e", 2), ("f", 2)]
    assert res.in_use == 3 and res.queued == 0


def _delivery_vs_timeouts(send):
    """Where a NoC delivery lands among same-cycle Timeouts.

    A ticker wakes at the delivery time ``T`` and then keeps waiting on
    ``Timeout(0)``: tick *k* fires in the *k*-th fresh bucket at ``T``.
    The delivery's fourth slot is booked by the third, which runs in the
    first bucket at ``T``, so it fires between ticks 1 and 2 — before the
    Timeout the ticker books after it. One slot later and it would follow
    tick 2.
    """
    env = Environment()
    noc = Noc(env, Counters(), lanes=2, link_bytes_per_cycle=16,
              hop_latency=1, header_bytes=0, multicast_enabled=True)
    fired = []
    # lane0 -> lane1 is one hop: 64 B over a free 16 B/cycle link clears
    # it at t=4, and the hop latency delivers at t=5.
    arrival = 5

    def ticker():
        yield env.timeout(arrival)
        for tick in range(4):
            fired.append(("tick", tick, env.now))
            yield env.timeout(0)

    env.process(ticker())
    send(env, noc, lambda _arg: fired.append(("delivered", env.now)))
    env.run()
    return fired


def test_unicast_then_fires_before_a_later_booked_same_cycle_timeout():
    def by_call_slot(env, noc, then):
        noc.unicast_then("lane0", "lane1", 64, then)

    def by_event(env, noc, then):
        noc.unicast("lane0", "lane1", 64).add_callback(then)

    expected = [("tick", 0, 5), ("tick", 1, 5), ("delivered", 5),
                ("tick", 2, 5), ("tick", 3, 5)]
    assert _delivery_vs_timeouts(by_call_slot) == expected
    assert _delivery_vs_timeouts(by_event) == expected


def test_unicast_then_same_node_is_one_slot_now():
    env = Environment()
    noc = Noc(env, Counters(), lanes=2, link_bytes_per_cycle=16,
              hop_latency=1, header_bytes=0, multicast_enabled=True)
    fired = []
    noc.unicast_then("lane0", "lane0", 64, lambda _arg: fired.append(env.now))
    assert fired == []
    env.run()
    assert fired == [0] and env.events_processed == 1
    assert noc.total_bytes() == 0

