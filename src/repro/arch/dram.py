"""Main-memory model: a shared bandwidth channel with a locality knob.

All lanes share one DRAM channel (the usual accelerator configuration at
this scale). A request's *effective* size is inflated by the row-locality
penalty: fully sequential streams (locality 1.0) move at peak bandwidth,
fully random gathers (locality 0.0) pay ``random_penalty``x. The channel is
a FIFO server, so cross-lane bandwidth contention is emergent.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim import BandwidthServer, Counters, Environment, Event
from repro.sim.engine import SimulationError
from repro.sim.faults import NULL_INJECTOR, FaultInjector


class Dram:
    """One shared memory channel."""

    def __init__(self, env: Environment, counters: Counters,
                 bytes_per_cycle: float, latency: float,
                 random_penalty: float,
                 injector: Optional[FaultInjector] = None) -> None:
        if random_penalty < 1.0:
            raise SimulationError(
                f"random_penalty must be >= 1, got {random_penalty}")
        self.env = env
        self.counters = counters
        self.injector = injector or NULL_INJECTOR
        self.channel = BandwidthServer(env, bytes_per_cycle, latency,
                                       name="dram")
        self.random_penalty = random_penalty

    def fetch(self, nbytes: float, locality: float = 1.0) -> Event:
        """Read ``nbytes``; ``locality`` in [0, 1] scales the row penalty."""
        return self._request(nbytes, locality, "read")

    def fetch_then(self, nbytes: float, locality: float,
                   then: Callable[[Any], None]) -> None:
        """:meth:`fetch`, calling ``then`` on completion from a bare call
        slot (see :meth:`BandwidthServer.transfer_then`)."""
        self._request_then(nbytes, locality, "read", then)

    def writeback_then(self, nbytes: float, locality: float,
                       then: Callable[[Any], None]) -> None:
        """Write ``nbytes`` to memory, calling ``then`` on completion from
        a bare call slot."""
        self._request_then(nbytes, locality, "write", then)

    def _request(self, nbytes: float, locality: float, kind: str) -> Event:
        served = self.channel.transfer(self._account(nbytes, locality, kind))
        if self.injector.enabled:
            spike = self.injector.dram_spike(self.env.now)
            if spike > 0.0:
                return self._spiked(served, spike)
        return served

    def _request_then(self, nbytes: float, locality: float, kind: str,
                      then: Callable[[Any], None]) -> None:
        if self.injector.enabled:
            # A spiked response is an event chain; a lone callback on it
            # runs in the same slot the call slot would take.
            self._request(nbytes, locality, kind).add_callback(then)
        else:
            self.channel.transfer_then(
                self._account(nbytes, locality, kind), then)

    def _account(self, nbytes: float, locality: float, kind: str) -> float:
        """Validate and count one request; return its effective size."""
        if not 0.0 <= locality <= 1.0:
            raise SimulationError(f"locality must be in [0,1]: {locality}")
        if nbytes < 0:
            raise SimulationError(f"negative request size: {nbytes}")
        penalty = self.random_penalty - (self.random_penalty - 1.0) * locality
        effective = nbytes * penalty
        self.counters.add(f"dram.{kind}_bytes", nbytes)
        self.counters.add(f"dram.{kind}_effective_bytes", effective)
        self.counters.add("dram.requests")
        return effective

    def _spiked(self, served: Event, spike: float) -> Event:
        """Delay one response by a spike; the requester simply waits —
        the watchdog bound lives in the injector (``dram-timeout``)."""
        self.counters.add("faults.injected")
        self.counters.add("faults.dram_spikes")
        self.counters.add("faults.dram_spike_cycles", spike)
        self.counters.add("recovery.absorbed_spike_cycles", spike)
        done = self.env.event(name="dram-spike")
        served.add_callback(
            lambda _ev: self.env.timeout(spike).add_callback(
                lambda _t: done.succeed()))
        return done

    @property
    def total_bytes(self) -> float:
        """Actual data bytes moved (without penalty inflation)."""
        return (self.counters.get("dram.read_bytes")
                + self.counters.get("dram.write_bytes"))

    def utilization(self) -> float:
        """Channel busy fraction so far."""
        return self.channel.utilization()
