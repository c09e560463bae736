"""Stream engines: the data movers between DRAM, NoC, scratchpad and fabric.

A *stream* is a bulk transfer broken into chunks. Chunks flow through the
stage pipeline (DRAM channel -> NoC links -> scratchpad banks), and each
stage is a FIFO bandwidth server, so the stream's steady-state rate is set
by the slowest stage while other streams contend naturally.

Pipelining is modeled by decoupling issue from delivery: the pump waits
for the DRAM stage of chunk *k*, then hands the downstream stages to a
detached delivery chain and immediately issues chunk *k+1*. In-flight
chunks are bounded by a credit :class:`~repro.sim.Resource`, so downstream
backpressure (a slow consumer of ``dest_store``) throttles DRAM issue —
exactly the behaviour hardware credit-based streams have.

The DRAM/NoC/scratchpad pumps are written in continuation-passing style,
and a pump starts from a bare call slot. A stage whose only waiter is the
next stage does not allocate an event: DRAM and scratchpad transfers
complete through ``fetch_then``/``writeback_then``/``access_then``, NoC
messages through :meth:`~repro.arch.noc.Noc.unicast_then`, store
operations through ``put_then``/``get_then`` and credits through
``acquire_then``. Each places the continuation as a call slot exactly
where the Event it replaces would sit in the queue, so the continuation
runs where a generator process would resume, without a generator frame,
a Process object or an Event per chunk. Each pump returns one
completion Event, the occurrence its caller joins on.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.arch.dram import Dram
from repro.arch.noc import MEM_NODE, Noc
from repro.arch.spad import Scratchpad
from repro.sim import Counters, Environment, Event, Resource, Store


class StreamEngine:
    """All stream data movement for one lane."""

    def __init__(self, env: Environment, counters: Counters, lane_name: str,
                 noc: Noc, dram: Dram, spad: Scratchpad, chunk_bytes: int,
                 max_inflight_chunks: int = 4) -> None:
        self.env = env
        self.counters = counters
        self.lane_name = lane_name
        self.noc = noc
        self.dram = dram
        self.spad = spad
        self.chunk_bytes = chunk_bytes
        self.max_inflight_chunks = max_inflight_chunks
        self._in_key = f"{lane_name}.stream_in_bytes"
        self._resident_key = f"{lane_name}.resident_read_bytes"
        self._out_key = f"{lane_name}.stream_out_bytes"
        self._credits_name = f"{lane_name}.in_credits"

    # -- helpers -----------------------------------------------------------

    def chunks_of(self, nbytes: float) -> list[int]:
        """Split a transfer into chunk sizes (last chunk may be short)."""
        if nbytes <= 0:
            return []
        full = int(nbytes // self.chunk_bytes)
        sizes = [self.chunk_bytes] * full
        rem = int(nbytes - full * self.chunk_bytes)
        if rem:
            sizes.append(rem)
        return sizes

    def chunk_count(self, nbytes: float) -> int:
        """Number of chunks for a transfer of ``nbytes``."""
        return max(0, math.ceil(nbytes / self.chunk_bytes)) if nbytes > 0 else 0

    # -- memory -> lane ----------------------------------------------------

    def stream_in(self, nbytes: float, locality: float = 1.0,
                  dest_store: Optional[Store] = None,
                  close_dest: bool = False) -> Event:
        """Stream ``nbytes`` from DRAM into this lane's scratchpad.

        Per chunk: take a credit, fetch from DRAM, then hand the chunk to a
        detached delivery (:meth:`_deliver_chunk`) and issue the next one.
        If ``dest_store`` is given, a token is put per delivered chunk so
        the lane pipeline can consume data as it arrives. The returned event
        fires when the final chunk has landed.

        Completion is a join over the chunk landings, placed where an
        ``all_done`` over one Event per chunk would put it: once the last
        chunk is issued, one call slot for each chunk that has already
        landed, the landing slot of each chunk still in flight, and then
        one completion slot where the ``all_done`` Event fired (a single
        slot at ``now`` for an empty stream).
        """
        env = self.env
        complete = Event(env, "stream_in")
        credits = Resource(env, self.max_inflight_chunks,
                           name=self._credits_name)
        sizes = self.chunks_of(nbytes)
        idx = 0
        landed = 0  # chunks landed before the join exists
        pending = -1  # chunks the join still waits for; -1 before it

        def final(_arg: object) -> None:
            self.counters.add(self._in_key, nbytes)
            if dest_store is not None and close_dest:
                dest_store.close()
            complete.succeed()

        def count_landing(_arg: object) -> None:
            nonlocal pending
            pending -= 1
            if pending == 0:
                env._schedule_call(final)

        def on_landing(_arg: object) -> None:
            nonlocal landed
            if pending < 0:
                landed += 1
            else:
                count_landing(None)

        def after_fetch(_arg: object) -> None:
            nonlocal idx
            self._deliver_chunk(sizes[idx], dest_store, credits, on_landing)
            idx += 1
            next_chunk(None)

        def after_grant(_arg: object) -> None:
            self.dram.fetch_then(sizes[idx], locality, after_fetch)

        def next_chunk(_arg: object) -> None:
            nonlocal pending
            if idx < len(sizes):
                credits.acquire_then(after_grant)
            elif not sizes:
                env._schedule_call(final)
            else:
                pending = len(sizes)
                for _ in range(landed):
                    env._schedule_call(count_landing)

        env._schedule_call(next_chunk)
        return complete

    def _deliver_chunk(self, size: int, dest_store: Optional[Store],
                       credits: Resource,
                       landed: Callable[[Any], None]) -> None:
        """NoC to the lane, scratchpad write, optional token, credit back;
        then ``landed`` runs from a call slot at ``now``."""
        env = self.env

        def finish(_arg: object) -> None:
            credits.release()
            env._schedule_call(landed)

        def after_spad(_arg: object) -> None:
            if dest_store is not None:
                dest_store.put_then(size, finish)
            else:
                finish(None)

        def after_noc(_arg: object) -> None:
            self.spad.access_then(size, True, after_spad)

        def start(_arg: object) -> None:
            self.noc.unicast_then(MEM_NODE, self.lane_name, size, after_noc)

        env._schedule_call(start)

    # -- resident scratchpad data -> fabric --------------------------------

    def read_resident(self, nbytes: float,
                      dest_store: Optional[Store] = None,
                      close_dest: bool = False) -> Event:
        """Feed on-chip (multicast-resident) data to the fabric.

        No DRAM or NoC traffic — only scratchpad bank reads. This is the
        payoff of read-sharing recovery.
        """
        env = self.env
        complete = Event(env, "read_resident")
        sizes = self.chunks_of(nbytes)
        idx = [0]

        def final() -> None:
            self.counters.add(self._resident_key, nbytes)
            if dest_store is not None and close_dest:
                dest_store.close()
            complete.succeed()

        def after_put(_arg: object) -> None:
            idx[0] += 1
            step(None)

        def after_access(_arg: object) -> None:
            if dest_store is not None:
                dest_store.put_then(sizes[idx[0]], after_put)
            else:
                after_put(None)

        def step(_arg: object) -> None:
            if idx[0] == len(sizes):
                final()
            else:
                self.spad.access_then(sizes[idx[0]], False, after_access)

        env._schedule_call(step)
        return complete

    # -- lane -> memory ----------------------------------------------------

    def stream_out(self, nbytes: float, locality: float = 1.0,
                   src_store: Optional[Store] = None) -> Event:
        """Stream ``nbytes`` of results back to DRAM.

        With ``src_store``, chunks are drained as compute produces them
        (tokens put by the lane pipeline); otherwise the whole transfer
        is issued immediately (end-of-task writeback). Each chunk goes
        scratchpad read -> NoC to memory -> DRAM writeback.
        """
        env = self.env
        complete = Event(env, "stream_out")
        remaining = [float(nbytes)]

        def writeback(size: float, then) -> None:
            def after_noc(_arg: object) -> None:
                self.dram.writeback_then(size, locality, then)

            def after_spad(_arg: object) -> None:
                self.noc.unicast_then(self.lane_name, MEM_NODE, size,
                                      after_noc)

            self.spad.access_then(size, False, after_spad)

        def final() -> None:
            self.counters.add(self._out_key, nbytes)
            complete.succeed()

        if src_store is None:
            sizes = self.chunks_of(nbytes)
            idx = [0]

            def step(_arg: object) -> None:
                if idx[0] == len(sizes):
                    final()
                else:
                    def done(_arg: object) -> None:
                        idx[0] += 1
                        step(None)

                    writeback(sizes[idx[0]], done)

            env._schedule_call(step)
            return complete

        # Consume *every* compute token (or the producer would block on a
        # full store), writing back at most ``nbytes`` total; any bytes
        # left after the stream closes go out as a trailing burst.
        def trailing(_arg: object) -> None:
            if remaining[0] > 0:
                size = min(self.chunk_bytes, remaining[0])

                def done(_arg: object) -> None:
                    remaining[0] -= size
                    trailing(None)

                writeback(size, done)
            else:
                final()

        def on_token(token: object) -> None:
            if token is Store.END:
                trailing(None)
                return
            size = min(self.chunk_bytes, remaining[0])
            if size > 0:
                def done(_arg: object) -> None:
                    remaining[0] -= size
                    get_next(None)

                writeback(size, done)
            else:
                get_next(None)

        def get_next(_arg: object) -> None:
            src_store.get_then(on_token)

        env._schedule_call(get_next)
        return complete
