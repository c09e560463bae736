"""Host-time ledger: spans around the program's public entry points.

The benchmark measures the program from outside. A traced run wraps the
public entry points of each layer (``Delta.run``, ``recover_structure``,
``EvalCache.get``, ``ShardedStore.write``, ...) so every call records one
span: name, start, end, and the span that caused it. Self time is a span's
duration minus the time its child spans cover.

One :class:`Ledger` lives in each process the benchmark measures. Pool
workers forked from a process with a ledger start with an empty copy of
it and write what they recorded -- spans, their DES event count and their
peak RSS -- to ``proc-<pid>.json`` when they exit; :func:`collect` reads
those files back. Until :meth:`Ledger.install` runs, a ledger wraps
nothing and still reports the event counts and peak RSS of its process
and its pool workers.

Nothing here is imported by the program: the wrappers are installed by
assignment onto the program's classes and modules and removed again by
:meth:`Ledger.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Optional

#: Plain functions to wrap: (span name, defining module, attribute). Every
#: loaded ``repro`` module that bound the function by name is patched too
#: -- ``recover_structure`` is imported by name into baseline/static.py,
#: sched/structure.py and graph/cache.py.
FUNCTIONS = (
    ("graph.recover_structure", "repro.graph.ir", "recover_structure"),
    ("sched.hints_from_factory", "repro.sched.structure",
     "hints_from_factory"),
    ("eval.compare", "repro.eval.runner", "compare"),
    ("eval.run_points", "repro.eval.parallel", "run_points"),
)

#: Modules known to bind a wrapped function by name; imported before the
#: scan so their bindings exist to be patched.
BINDING_MODULES = ("repro.graph", "repro.graph.cache", "repro.baseline.static",
                   "repro.sched.structure", "repro.eval.parallel")

#: Methods to wrap: (span name, module, class, attribute).
METHODS = (
    ("delta.run", "repro.core.delta", "Delta", "run"),
    ("static.run", "repro.baseline.static", "StaticParallel", "run"),
    ("machine.build", "repro.machine.machine", "Machine", "build"),
    ("eval.cache.get", "repro.eval.cache", "EvalCache", "get"),
    ("eval.cache.put", "repro.eval.cache", "EvalCache", "put"),
    ("store.read", "repro.store.sharded", "ShardedStore", "read"),
    ("store.write", "repro.store.sharded", "ShardedStore", "write"),
)

#: One recorded call: (name, pid, thread id, span id, parent span id or 0,
#: start, end, extra dict or None). Times are ``time.perf_counter()``
#: seconds, which on Linux share one monotonic clock across processes.
Span = tuple


def peak_rss_kb() -> int:
    """This process's peak resident set size (VmHWM), in KiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _events_processed() -> int:
    from repro.sim import total_events_processed

    return total_events_processed()


class Ledger:
    """Span recorder for one process (see the module docstring)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._events_base = _events_processed()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable,
              extra: Optional[Callable] = None) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = ledger._stack()
            # A frame is [span id, parent id, machines built under it].
            frame = [next(ledger._ids), stack[-1][0] if stack else 0, []]
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = extra(args, kwargs, result, frame, stack) \
                    if extra is not None else None
                ledger.spans.append((name, ledger.pid, threading.get_ident(),
                                     frame[0], frame[1], start, end, info))

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in this process (idempotent)."""
        if self._patches:
            return
        for module in BINDING_MODULES:
            importlib.import_module(module)
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            wrapped = self._wrap(name, original, _FUNCTION_EXTRAS.get(name))
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("repro")
                        and loaded.__dict__.get(attr) is original):
                    self._patch(loaded, attr, wrapped)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__,
                                                 _METHOD_EXTRAS.get(name)))
            else:
                wrapped = self._wrap(name, raw, _METHOD_EXTRAS.get(name))
            self._patch(cls, attr, wrapped)
        for cls in _workload_classes():
            for attr in ("build_program", "check"):
                if attr in cls.__dict__:
                    self._patch(cls, attr,
                                self._wrap(f"workloads.{attr}",
                                           cls.__dict__[attr]))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- processes -------------------------------------------------------

    def watch_forks(self) -> None:
        """Make forked pool workers report to :attr:`out_dir` on exit."""
        mp_util.register_after_fork(self, Ledger._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        self._events_base = _events_processed()
        mp_util.Finalize(None, self.flush, exitpriority=100)

    def events(self) -> int:
        """DES slots this process drained since the ledger started."""
        return _events_processed() - self._events_base

    def flush(self) -> None:
        """Write this process's record to ``out_dir/proc-<pid>.json``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        record = {"pid": self.pid, "events": self.events(),
                  "peak_rss_kb": peak_rss_kb(), "spans": self.spans}
        path = self.out_dir / f"proc-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record))
        tmp.replace(path)


def collect(out_dir: Path) -> list[dict]:
    """Read (and remove) the records that other processes flushed."""
    records = []
    for path in sorted(Path(out_dir).glob("proc-*.json")):
        records.append(json.loads(path.read_text()))
        path.unlink()
    return records


def wait_for_children(timeout: float = 30.0) -> None:
    """Join every multiprocessing child of this process (pool workers
    shut down without waiting, so they may still be exiting)."""
    import multiprocessing

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            return
        time.sleep(0.01)


# -- per-span extras ------------------------------------------------------

def _machine_built(args, kwargs, result, frame, stack):
    # Hand the machine to the span that asked for it, so that span can
    # count the DES slots its own machines drained -- exact even when two
    # threads simulate at once.
    if result is not None and stack:
        stack[-1][2].append(result)
    return None


def _run_events(args, kwargs, result, frame, stack):
    return {"events": sum(m.env.events_processed for m in frame[2])}


def _tasks(args, kwargs, result, frame, stack):
    return {"tasks": getattr(result, "task_count", 0)}


def _read_bytes(args, kwargs, result, frame, stack):
    return {"bytes": len(result) if result else 0}


def _write_bytes(args, kwargs, result, frame, stack):
    payload = args[3] if len(args) > 3 else kwargs.get("payload", b"")
    return {"bytes": len(payload)}


def _cache_hit(args, kwargs, result, frame, stack):
    return {"hit": result is not None}


def _workers(args, kwargs, result, frame, stack):
    points = args[0] if args else kwargs.get("points", ())
    jobs = args[1] if len(args) > 1 else kwargs.get("jobs", 1)
    count = len(points)
    return {"workers": min(jobs, count) if jobs > 1 and count > 1 else 1,
            "points": count}


_FUNCTION_EXTRAS = {"graph.recover_structure": _tasks,
                    "eval.run_points": _workers}
_METHOD_EXTRAS = {"machine.build": _machine_built,
                  "delta.run": _run_events, "static.run": _run_events,
                  "eval.cache.get": _cache_hit,
                  "store.read": _read_bytes, "store.write": _write_bytes}


def _workload_classes() -> list[type]:
    from repro.workloads.base import Workload
    from repro.workloads.registry import workload_names

    workload_names()  # importing the registry registers every workload
    found: list[type] = []
    todo = [Workload]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


# -- aggregation ------------------------------------------------------------

class SpanTotals:
    """Calls, inclusive (busy) and exclusive (self) seconds per span name,
    plus the sums of each name's per-span extras."""

    def __init__(self, spans: list[Span]) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        #: run_points wall seconds times the workers it ran on.
        self.pool_capacity_s = 0.0
        children: dict[tuple, float] = defaultdict(float)
        for name, pid, _tid, _sid, parent, start, end, _info in spans:
            if parent:
                children[(pid, parent)] += end - start
        for name, pid, _tid, sid, _parent, start, end, info in spans:
            self.calls[name] += 1
            self.busy[name] += end - start
            self.self_s[name] += end - start - children[(pid, sid)]
            for key, value in (info or {}).items():
                self.extra[name][key] += float(value)
            if name == "eval.run_points":
                self.pool_capacity_s += (end - start) * info["workers"]

    def parallel_efficiency(self) -> float:
        """Compare time ÷ (run_points wall time × workers); 0 without
        run_points (every compare then ran outside a pool)."""
        if self.pool_capacity_s <= 0:
            return 0.0
        return min(1.0, self.busy["eval.compare"] / self.pool_capacity_s)


def write_chrome_trace(spans: list[Span], path: Path) -> None:
    """Export spans through the simulator's own Chrome-trace exporter, so
    harness time opens in the same viewer as simulated timelines."""
    from repro.sim.trace import Tracer

    tracer = Tracer()
    origin = min((span[5] for span in spans), default=0.0)
    threads: dict[tuple, int] = {}
    for name, pid, tid, sid, parent, start, end, info in sorted(
            spans, key=lambda span: span[5]):
        thread = threads.setdefault((pid, tid), len(threads))
        meta = {"span": f"{pid}:{sid}",
                "parent": f"{pid}:{parent}" if parent else None}
        meta.update(info or {})
        tracer.span("host", name, f"pid {pid} thread {thread}",
                    (start - origin) * 1e6, (end - origin) * 1e6, **meta)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome_trace(str(path))
