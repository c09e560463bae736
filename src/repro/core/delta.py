"""Delta: TaskStream applied to a reconfigurable dataflow accelerator.

Delta is a *hierarchical dataflow* machine: coarse-grained dataflow between
tasks (streams, recovered from dependence annotations) and fine-grained
dataflow inside a task (the CGRA lane executing the task's DFG).

The datapath itself — lanes, NoC, DRAM, scratchpads — is composed by
:class:`repro.machine.Machine`, shared verbatim with the static-parallel
baseline. This module contributes only the TaskStream execution model on
top of it: the hardware dispatcher, the multicast manager, and the
lane-to-lane stream channels.

The run loop:

1. Initial tasks are submitted to the :class:`~repro.core.dispatcher.
   Dispatcher`, which tracks readiness and places ready tasks on lane
   queues under the configured balancing policy.
2. Each lane runs a worker process: pop a task, reconfigure if needed,
   submit the children the task spawned, set up data movement, and
   execute the compute pipeline.
3. Data movement exploits recovered structure where the feature flags
   allow: shared reads go through the multicast manager; producer→consumer
   streams bypass DRAM through lane-to-lane channels; everything else
   streams to/from memory.

Every mechanism is gated by :class:`~repro.arch.config.FeatureFlags`, which
is how the ablation experiments (figure F2) switch them off one by one.

Delta is a pure timing model: it never runs a kernel. The program's one
functional elaboration (:func:`~repro.core.program.expand_program`,
memoized on the program) recorded each task's children, and a task's
start replays them. Several runs — Delta, the static baseline, Delta
again — can therefore share one program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Mapping, Optional

from repro.arch.config import MachineConfig
from repro.arch.lane import Lane
from repro.arch.noc import MEM_NODE
from repro.core.dispatcher import Dispatcher
from repro.core.multicast import MulticastManager
from repro.core.program import Program, expand_program
from repro.core.task import Task
from repro.machine import ExecutionStalled, Machine, RunResult, RunSession
from repro.sched.api import StructureHints
from repro.sim import Event, Store
from repro.sim.faults import LaneFailure, UnrecoverableFault
from repro.sim.trace import NullTracer, Tracer
from repro.util.rng import DeterministicRng

__all__ = ["Delta", "ExecutionStalled"]


@dataclass
class _Channel:
    """A lane-to-lane stream channel for one producer→consumer edge."""

    store: Store
    key: tuple[int, int]
    src_lane: Optional[str] = None


class Delta:
    """The Delta accelerator simulator."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config

    # -- public API ----------------------------------------------------------

    def run(self, program: Program,
            max_cycles: Optional[float] = None,
            trace: bool = False,
            sharing_degrees: Optional[Mapping[str, int]] = None,
            sched_hints: Optional[StructureHints] = None,
            ) -> RunResult:
        """Simulate ``program`` to completion and return the result.

        With ``trace=True`` the result carries a :class:`~repro.sim.trace.
        Tracer` timeline (task spans per lane, reconfigurations, shared
        fetches) exportable to Chrome tracing JSON.

        ``sharing_degrees`` (region name → expected reader count, e.g.
        ``StructureSummary.sharing_degrees`` from :mod:`repro.graph`)
        enables the multicast oracle: coalescing windows close as soon as
        a region's whole sharing set has requested it. Omitted (the
        default), timing is bit-identical to the fixed-window design.

        ``sched_hints`` (see :mod:`repro.sched.structure`) feeds the
        dispatch policy's structure attach point. They may be recovered
        from ``program`` itself — recovery and this run replay the same
        memoized elaboration — and are only worth computing when
        :func:`~repro.sched.api.policy_uses_structure` says the
        configured policy reads them.
        """
        machine = Machine.build(self.config,
                                tracer=Tracer() if trace else NullTracer())
        return _DeltaRun(machine, program,
                         sharing_degrees=sharing_degrees,
                         sched_hints=sched_hints).run(max_cycles)


class _DeltaRun:
    """The TaskStream execution model over one fresh machine."""

    def __init__(self, machine: Machine, program: Program,
                 sharing_degrees: Optional[Mapping[str, int]] = None,
                 sched_hints: Optional[StructureHints] = None,
                 ) -> None:
        self.machine = machine
        self.config = machine.config
        self.program = program
        expanded = expand_program(program)
        expanded.reset_run_flags()
        #: task id -> the children its kernel spawned, in spawn order.
        self._children = expanded.children
        self.tracer = machine.tracer
        self.env = machine.env
        self.metrics = machine.metrics
        self.lanes = machine.lanes
        self.noc = machine.noc
        self.dram = machine.dram
        self.rng = DeterministicRng("delta", program.name,
                                    self.config.seed)
        self.features = self.config.features

        self.sanitizer = machine.sanitizer
        self.sanitizer.set_sharing_degrees(sharing_degrees)
        self.injector = machine.injector
        self.dispatcher = Dispatcher(
            self.env, self.metrics, self.config.dispatch, self.config.lanes,
            self.features, self.rng.fork("dispatch"),
            sanitizer=self.sanitizer)
        if sched_hints is not None:
            self.dispatcher.attach_hints(sched_hints)
        self.mcast = MulticastManager(
            self.env, self.metrics, self.noc, self.dram, self.lanes,
            window_cycles=self.config.effective_mcast_window(),
            expected_degrees=sharing_degrees,
            sanitizer=self.sanitizer, injector=self.injector)
        self.dispatcher.affinity_window = float(
            self.config.lane.config_cycles)
        self.session = RunSession(machine, "delta", program.name,
                                  program.state)
        self._channels: dict[tuple[int, int], _Channel] = {}
        #: task_id -> (prefetch process, lane_id, region name) for the
        #: prefetch extension (double buffering of private reads).
        self._prefetches: dict[int, tuple] = {}

        for lane in self.lanes:
            self.env.process(self._worker(lane), name=f"worker:{lane.name}")
        if self.injector.enabled:
            for failure in self.injector.plan.lane_failures:
                self.env.process(self._lane_failure(failure),
                                 name=f"fault:lane{failure.lane}")

    # -- top level -------------------------------------------------------------

    def run(self, max_cycles: Optional[float]) -> RunResult:
        """Submit the initial tasks, run the event loop, collect results."""
        for task in self.program.initial_tasks:
            self.dispatcher.submit(task)
        self.session.run_until_complete(
            max_cycles,
            finished=lambda: self.dispatcher.drained.triggered,
            stall_detail=lambda: (
                f"with {self.dispatcher.outstanding} tasks outstanding "
                f"(queues: {[q.level for q in self.dispatcher.queues]})\n"
                f"dispatcher: {self.dispatcher.queue_snapshot()}"))
        return self.session.result()

    # -- lane worker -------------------------------------------------------------

    def _worker(self, lane: Lane) -> Generator:
        queue = self.dispatcher.queues[lane.lane_id]
        policy = self.dispatcher.policy
        while True:
            if policy.steals:
                if self.dispatcher.drained.triggered:
                    return
                if self.injector.enabled \
                        and self.dispatcher.is_dead(lane.lane_id):
                    # A fail-stopped lane must not turn thief: stealing
                    # onto a dead queue would strand the haul (the dead
                    # worker requeues one task and goes dark).
                    return
                if queue.level == 0:
                    stolen = yield from self.dispatcher.try_steal(
                        lane.lane_id)
                    if not stolen:
                        yield self.env.timeout(policy.idle_backoff)
                    continue
            task = yield queue.get()
            if self.injector.enabled \
                    and self.dispatcher.is_dead(lane.lane_id):
                # The dispatch raced the fail-stop: the task landed on
                # this queue in the same window the lane died. Hand it
                # back for re-dispatch and go dark.
                self.dispatcher.requeue(task)
                return
            self.dispatcher.kick()  # queue slot freed
            if self.features.prefetch:
                self._maybe_prefetch(lane, queue)
            yield from self._execute(lane, task)

    def _maybe_prefetch(self, lane: Lane, queue: Store) -> None:
        """Prefetch extension: start streaming the *next* queued task's
        private reads into the scratchpad while the popped task runs."""
        head: Optional[Task] = queue.peek()
        if head is None:
            return
        if head.task_id in self._prefetches:
            return
        nbytes = sum(spec.nbytes for spec in head.reads if not spec.shared)
        if nbytes <= 0:
            return
        region = f"pf:{head.task_id}"
        try:
            if lane.spad.free_bytes < nbytes:
                evicted = lane.spad.evict_lru_until(nbytes)
                for victim in evicted:
                    if victim.startswith("pf:"):
                        # Another pending task's prefetch was evicted:
                        # drop its entry so that task streams normally
                        # instead of reading a phantom resident region.
                        self._prefetches.pop(int(victim[3:]), None)
                    else:
                        # A multicast region was evicted; tell the manager.
                        self.mcast.invalidate(victim, lane.lane_id)
            lane.spad.allocate(region, nbytes)
        except Exception:
            return  # does not fit; skip the prefetch
        proc = self.env.process(self._prefetch_pump(lane, nbytes),
                                name=f"prefetch:{head.name}")
        self._prefetches[head.task_id] = (proc, lane.lane_id, region)
        self.metrics.prefetch.add("issued")

    def _prefetch_pump(self, lane: Lane, nbytes: float) -> Generator:
        """Low-priority prefetch: only issues a chunk when the DRAM channel
        is near idle, so demand traffic is never delayed."""
        for size in lane.streams.chunks_of(nbytes):
            while self.dram.channel.backlog_cycles > 8:
                yield self.env.timeout(16)
            yield self.dram.fetch(size, 1.0)
            yield self.noc.unicast(MEM_NODE, lane.name, size)
            yield lane.spad.access(size, is_write=True)
        self.metrics.prefetch.add("bytes", nbytes)

    # -- task execution ------------------------------------------------------------

    def _execute(self, lane: Lane, task: Task) -> Generator:
        t_begin = self.env.now
        self.sanitizer.lane_acquired(lane.lane_id, task, t_begin)
        if lane.config.task_overhead_cycles:
            # Software-runtime regime: dequeue + closure-call cost.
            yield self.env.timeout(lane.config.task_overhead_cycles)
            self.metrics.runtime.add("task_overhead_cycles",
                                     lane.config.task_overhead_cycles)
        was_configured = lane.configured_for(task.type.dfg)
        mapping = yield from lane.configure(task.type.dfg)
        if not was_configured and self.env.now > t_begin:
            self.tracer.span("config", task.type.dfg.name, lane.name,
                             t_begin, self.env.now)
        self.metrics.tasks.add(task.type.name)

        self.dispatcher.task_started(task)
        # Submitting the recorded children at start lets pipelined
        # consumers co-schedule with their producers.
        for child in self._children[task.task_id]:
            self.dispatcher.submit(child)

        if self.injector.enabled:
            yield from self._ride_out_task_faults(lane, task, mapping)

        procs = []
        in_streams: list[tuple[Store, int]] = []
        chunks_of = lane.streams.chunk_count

        # Prefetch extension: if this task's private reads were prefetched
        # onto *this* lane, wait out any remaining transfer time and serve
        # them from the scratchpad.
        prefetch = self._prefetches.pop(task.task_id, None)
        prefetched_here = False
        prefetch_region = None
        pf_proc = None
        if prefetch is not None:
            pf_proc, pf_lane, prefetch_region = prefetch
            if pf_lane == lane.lane_id:
                prefetched_here = True
                self.metrics.prefetch.add("used")
            else:
                # Stolen to a different lane: the prefetch was wasted.
                self.lanes[pf_lane].spad.release(prefetch_region)
                prefetch_region = None
                pf_proc = None
                self.metrics.prefetch.add("wasted")

        # 1. Annotated reads: shared regions via multicast (when enabled),
        #    everything else streamed privately from DRAM.
        for spec in task.reads:
            store = Store(self.env, capacity=8,
                          name=f"{task.name}.in")
            if spec.shared and self.features.multicast:
                already = self.mcast.is_resident(spec.region, lane.lane_id)
                yield from self.mcast.ensure(spec.region, spec.nbytes,
                                             spec.locality, lane.lane_id)
                self.tracer.instant(
                    "shared-read", spec.region, lane.name, self.env.now,
                    hit=already, nbytes=spec.nbytes)
                procs.append(lane.streams.read_resident(
                    spec.nbytes, dest_store=store, close_dest=True))
            elif not spec.shared and prefetched_here:
                # Serve from the (possibly still landing) prefetch: wait
                # out the remaining transfer, then read at spad bandwidth —
                # compute overlaps with the wait through the store gating.
                procs.append(self.env.process(
                    self._resident_after(pf_proc, lane, spec.nbytes,
                                         store)))
            else:
                if spec.shared:
                    self.metrics.mcast.add("disabled_duplicate_fetches")
                procs.append(lane.streams.stream_in(
                    spec.nbytes, spec.locality, dest_store=store,
                    close_dest=True))
            in_streams.append((store, chunks_of(spec.nbytes)))

        # 2. Stream inputs from producer tasks.
        for producer in task.stream_from:
            if self.features.pipelining:
                channel = self._channel(producer, task)
                store = Store(self.env, capacity=8,
                              name=f"{task.name}.pipe")
                procs.append(self._pull(lane, channel, store, task))
                in_streams.append((store, chunks_of(producer.write_bytes)))
            else:
                # Degraded: the producer wrote its output to DRAM; read it
                # back (the memory round trip pipelining would remove).
                nbytes = producer.write_bytes
                if nbytes > 0:
                    store = Store(self.env, capacity=8,
                                  name=f"{task.name}.dep")
                    procs.append(lane.streams.stream_in(
                        nbytes, 1.0, dest_store=store, close_dest=True))
                    in_streams.append((store, chunks_of(nbytes)))

        # 3. Output path: forward to pipelined consumers, else write back.
        out_stores: list[Store] = []
        write_bytes = task.write_bytes
        pipelined_out = (self.features.pipelining
                         and bool(task.stream_consumers))
        if pipelined_out:
            out = Store(self.env, capacity=8, name=f"{task.name}.out")
            out_stores.append(out)
            channels = [self._channel(task, c) for c in task.stream_consumers]
            for channel in channels:
                channel.src_lane = lane.name
            procs.append(self._fan_out(out, channels, write_bytes))
            self.metrics.pipe.add("streams", len(channels))
        elif write_bytes > 0:
            out = Store(self.env, capacity=8, name=f"{task.name}.out")
            out_stores.append(out)
            locality = task.writes[0].locality if task.writes else 1.0
            procs.append(lane.streams.stream_out(
                write_bytes, locality, src_store=out))
            if task.stream_consumers:
                self.metrics.pipe.add("disabled_round_trips")

        # 4. Compute.
        yield lane.run_pipeline(mapping, task.trips, in_streams, out_stores)

        # 5. Drain any input tokens the compute did not consume (rounding
        #    or early-closed streams), so producers blocked on full stores
        #    always make progress.
        drains = [store.drain() for store, _total in in_streams
                  if not (store.closed and store.level == 0)]
        yield self.env.all_done(procs + drains)

        self.tracer.span("task", task.name, lane.name, t_begin,
                         self.env.now, type=task.type.name,
                         trips=task.trips, work=task.work)
        if prefetch_region is not None and prefetched_here:
            lane.spad.release(prefetch_region)
        self.sanitizer.compute_expected(
            lane.lane_id, task,
            0.0 if task.trips <= 0
            else float(mapping.depth + mapping.ii * task.trips))
        self.session.task_completed()
        self.dispatcher.task_completed(task)
        self.sanitizer.lane_released(lane.lane_id, task, self.env.now)

    # -- stream plumbing ------------------------------------------------------------

    def _channel(self, producer: Task, consumer: Task) -> _Channel:
        """Get or lazily create the channel for one producer→consumer edge.

        Capacity covers the whole stream so a producer never blocks on a
        consumer that has not been placed yet (hardware would spill to
        memory at this point; we let the skid buffer cover it and keep the
        traffic accounting on the pull side).
        """
        key = (producer.task_id, consumer.task_id)
        channel = self._channels.get(key)
        if channel is None:
            chunks = self.lanes[0].streams.chunk_count(producer.write_bytes)
            channel = _Channel(Store(self.env, capacity=chunks + 4,
                                     name=f"ch{key}"), key)
            self._channels[key] = channel
        return channel

    def _fan_out(self, out: Store, channels: list[_Channel],
                 write_bytes: float) -> Event:
        """Copy compute output tokens into every consumer channel.

        Exactly ``write_bytes`` are forwarded regardless of how many compute
        tokens arrive: compute trip counts and output sizes need not match
        (a leaf sort does n·log n trips but emits n elements). Capping the
        forwarded bytes keeps the put count within the channel capacity, so
        a producer can always run to completion even if its consumer has
        not been scheduled yet — the property that makes pipelined
        dispatch deadlock-free.

        A continuation chain: a bootstrap call slot at ``now``, a call
        slot per store get and put, and the returned Event once every
        channel is closed — the slots a generator process took.
        """
        env = self.env
        done = Event(env, "fanout")
        chunk = self.config.lane.stream_chunk_bytes
        element_bytes = self.config.element_bytes
        stream_produced = self.sanitizer.stream_produced
        sent = 0.0
        size = 0.0
        idx = 0  # the next channel to receive ``size``
        ended = False  # the compute closed ``out``

        def put_next(_arg: object) -> None:
            nonlocal idx, sent
            if idx < len(channels):
                channel = channels[idx]
                idx += 1
                # Record at put-issue time: a waiting consumer resumes
                # before the put's own completion, so recording after it
                # would misreport a legal read as ahead.
                stream_produced(*channel.key, size, env.now)
                channel.store.put_then(size, put_next)
                return
            sent += size
            if ended:
                trailing()
            else:
                out.get_then(on_token)

        def send(nbytes: float) -> None:
            nonlocal size, idx
            size, idx = nbytes, 0
            put_next(None)

        def on_token(token: object) -> None:
            nonlocal ended
            if token is Store.END:
                ended = True
                trailing()
                return
            nbytes = min(token * element_bytes, write_bytes - sent)
            if nbytes > 0:
                send(nbytes)
            else:
                out.get_then(on_token)

        def trailing() -> None:
            if sent < write_bytes:
                send(min(chunk, write_bytes - sent))
                return
            for channel in channels:
                channel.store.close()
            done.succeed()

        env._schedule_call(lambda _arg: out.get_then(on_token))
        return done

    def _pull(self, lane: Lane, channel: _Channel,
              in_store: Store, task: Optional[Task] = None) -> Event:
        """Consumer side of a pipelined stream: chunks hop lane-to-lane.

        Per token: the NoC hop from the producer's lane (none when both
        tasks share a lane), any stream replays, the scratchpad write and
        the put into the compute's input store. A continuation chain with
        the slots of the generator process it replaced: a bootstrap call
        slot at ``now``, a call slot per get, hop, write and put, and the
        returned Event once ``in_store`` is closed.
        """
        env = self.env
        done = Event(env, "pull")
        pulled = 0.0
        size = 0.0
        src: Optional[str] = None

        def on_token(token: object) -> None:
            nonlocal size, src
            if token is Store.END:
                self.metrics.pipe.add("bytes", pulled)
                in_store.close()
                done.succeed()
                return
            size = float(token)
            self.sanitizer.stream_consumed(*channel.key, size, env.now)
            src = channel.src_lane
            if src is not None and src != lane.name:
                self.noc.unicast_then(src, lane.name, size, after_hop)
            else:
                write(None)

        def after_hop(_arg: object) -> None:
            if self.injector.enabled:
                self._replay_chunk(lane, channel, task, src, size, write)
            else:
                write(None)

        def write(_arg: object) -> None:
            lane.spad.access_then(size, True, put)

        def put(_arg: object) -> None:
            in_store.put_then(size, after_put)

        def after_put(_arg: object) -> None:
            nonlocal pulled
            pulled += size
            channel.store.get_then(on_token)

        env._schedule_call(lambda _arg: channel.store.get_then(on_token))
        return done

    def _resident_after(self, pf_proc, lane: Lane, nbytes: int,
                        store: Store) -> Generator:
        """Feed a prefetched input to the fabric once its transfer lands."""
        if pf_proc is not None and pf_proc.is_alive:
            yield pf_proc
        yield lane.streams.read_resident(nbytes, dest_store=store,
                                         close_dest=True)

    # -- fault recovery ------------------------------------------------------------

    def _lane_failure(self, failure: LaneFailure) -> Generator:
        """Scheduled lane fail-stop: quiesce the lane at its cycle and let
        the work-aware dispatcher re-balance the backlog onto survivors."""
        yield self.env.timeout(failure.cycle)
        if (self.dispatcher.drained.triggered
                or self.dispatcher.is_dead(failure.lane)):
            return
        self.metrics.faults.add("injected")
        self.metrics.faults.add("lane_failstop")
        rescued = self.dispatcher.fail_lane(failure.lane)
        self.metrics.recovery.add("lanes_lost")
        self.tracer.instant("lane-failure", f"lane{failure.lane}",
                            f"lane{failure.lane}", self.env.now,
                            rescued=rescued)

    def _ride_out_task_faults(self, lane: Lane, task: Task,
                              mapping) -> Generator:
        """Transient-fault window: each execution attempt may die mid-
        flight.  A dead attempt wastes a drawn fraction of the task's
        nominal compute time plus the policy backoff — as *idle* lane
        time, since only the final successful pass drives the fabric (the
        work-accounting invariant holds without exemptions).  The kernel's
        functional effects come from the program's one elaboration;
        re-execution is a timing event, so degraded runs stay functionally
        correct.
        """
        nominal = (0.0 if task.trips <= 0
                   else float(mapping.depth + mapping.ii * task.trips))
        attempt = 1
        while True:
            wasted = self.injector.task_fault_delay(
                task.name, lane.lane_id, attempt, nominal, self.env.now)
            if wasted is None:
                return
            self.metrics.faults.add("injected")
            self.metrics.faults.add("task_transient")
            self.sanitizer.task_retried(task, lane.lane_id, attempt,
                                        self.env.now)
            self.metrics.recovery.add("retries")
            self.metrics.recovery.add("recovery_cycles", wasted)
            yield self.env.timeout(wasted)
            attempt += 1

    def _replay_chunk(self, lane: Lane, channel: _Channel,
                      task: Optional[Task], src: str, size: float,
                      then: Callable[[Any], None]) -> None:
        """Stream replay: a corrupt chunk is NACKed and resent from the
        producer's last acknowledged chunk (retained at the source until
        the consumer acks), bounded by the plan's retry budget.

        Calls ``then(None)`` once the chunk has arrived clean: at once if
        it did, else from the delivery slot of the last resend. Each
        resend waits out the backoff in a call slot at ``now + backoff``.
        Past the budget, :class:`UnrecoverableFault` propagates out of the
        event loop, as it did from a strict-mode process step.
        """
        env = self.env
        policy = self.injector.plan.retry
        replays = 0

        def check(_arg: object) -> None:
            nonlocal replays
            if not self.injector.stream_corrupt():
                then(None)
                return
            replays += 1
            self.metrics.faults.add("injected")
            self.metrics.faults.add("stream_corrupt")
            if replays >= policy.max_attempts:
                raise UnrecoverableFault(
                    "stream-replay-exhausted",
                    f"stream chunk from {src} still corrupt after "
                    f"{replays} replays",
                    task=task.name if task is not None else None,
                    lane=lane.lane_id, cycle=env.now)
            self.sanitizer.stream_replayed(*channel.key, size, env.now)
            self.metrics.recovery.add("replayed_chunks")
            self.metrics.recovery.add("replayed_bytes", size)
            env._schedule_call(resend, None,
                               env.now + policy.backoff_cycles)

        def resend(_arg: object) -> None:
            self.noc.unicast_then(src, lane.name, size, check)

        check(None)
