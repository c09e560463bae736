#!/usr/bin/env python
"""Census of what the event loop allocates: Events and generator steps.

Every scheduling slot the DES drains is an :class:`~repro.sim.Event`
(its callbacks run), a bare call slot, or a generator resume hidden
inside an Event's callbacks. The slot *count* is pinned by
``tests/test_des_slot_count.py``; this census says which of those slots
still allocate an Event, and how many times a generator frame is
stepped, grouped by name — the numbers the single-waiter rule drives
down (``docs/performance.md``).

It counts from outside the kernel: :func:`census` wraps
``Event._process`` and ``Process._step`` for the duration of a ``with``
block and restores them on exit. Names group by their prefix before the
first ``:`` (``get:lane3.in`` counts as ``get``, ``pull:t17`` as
``pull``); a nameless event counts under its class name (``Timeout``).

Print the census of one suite pass (all workloads, Delta then static,
8 lanes, default configurations, one fresh program each)::

    PYTHONPATH=src python tools/des_census.py
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))


@dataclass
class Census:
    """Events drained and generator steps taken, by name."""

    events: Counter = field(default_factory=Counter)
    steps: Counter = field(default_factory=Counter)

    @property
    def total_events(self) -> int:
        return sum(self.events.values())

    @property
    def total_steps(self) -> int:
        return sum(self.steps.values())

    def summary(self) -> str:
        """One grep-able line: the two totals."""
        return (f"DES census: {self.total_events:,} events drained, "
                f"{self.total_steps:,} generator steps")

    def table(self) -> str:
        """The summary line, then each name's count, largest first."""
        lines = [self.summary()]
        for title, counts in (("events", self.events),
                              ("generator steps", self.steps)):
            lines.append(f"  {title}:")
            for name, count in sorted(counts.items(),
                                      key=lambda kv: (-kv[1], kv[0])):
                lines.append(f"    {name:<22} {count:>9,}")
        return "\n".join(lines)


def _group(obj) -> str:
    name = obj.name
    return name.split(":", 1)[0] if name else type(obj).__name__


@contextmanager
def census() -> Iterator[Census]:
    """Count Events drained and generator steps taken inside the block."""
    from repro.sim.engine import Event, Process

    result = Census()
    events, steps = result.events, result.steps
    process, step = Event._process, Process._step

    def counted_process(self) -> None:
        events[_group(self)] += 1
        process(self)

    def counted_step(self, value, is_throw) -> None:
        steps[_group(self)] += 1
        step(self, value, is_throw)

    Event._process = counted_process
    Process._step = counted_step
    try:
        yield result
    finally:
        Event._process = process
        Process._step = step


def run_suite_pass(lanes: int = 8) -> None:
    """One suite pass: every workload, Delta then static, fresh programs."""
    from repro.arch.config import (default_baseline_config,
                                   default_delta_config)
    from repro.baseline.static import StaticParallel
    from repro.core.delta import Delta
    from repro.workloads.registry import get_workload, workload_names

    for name in workload_names():
        program = get_workload(name).build_program()
        Delta(default_delta_config(lanes=lanes)).run(program)
        StaticParallel(default_baseline_config(lanes=lanes)).run(program)


def suite_pass_census(lanes: int = 8) -> Census:
    """The census of one :func:`run_suite_pass`."""
    with census() as result:
        run_suite_pass(lanes)
    return result


def main() -> int:
    print(suite_pass_census().table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
