"""A task-parallel program: types, shared state, and the initial task set.

The functional kernels mutate ``state``, so workloads expose
``build_program()`` factories rather than module-level singletons.

:func:`expand_program` is the program's one functional execution: it runs
every kernel exactly once, breadth-first and without timing, and records
the whole spawn tree. The result is memoized on the :class:`Program`, so
every consumer replays the same elaboration instead of re-running kernels
over already-mutated state: Delta submits each task's recorded children
when the task starts, the static-parallel baseline partitions the
barrier-separated phases (tasks grouped by spawn depth), and the graph
layer derives its typed IR from it. It is also what workload statistics
(table T2) count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.core.task import Task, TaskType, run_kernel


@dataclass
class Program:
    """One executable task-parallel program instance."""

    name: str
    state: Any
    initial_tasks: list[Task]
    task_types: list[TaskType] = field(default_factory=list)
    #: The memoized functional elaboration (see :func:`expand_program`).
    _expansion: Optional["ExpandedProgram"] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.initial_tasks:
            raise ValueError(f"program {self.name!r} has no initial tasks")
        if not self.task_types:
            types = {t.type.name: t.type for t in self.initial_tasks}
            self.task_types = list(types.values())


@dataclass
class ExpandedProgram:
    """The fully elaborated task graph of one program run.

    ``children`` maps each task id to the tasks its kernel spawned, in
    spawn order — the spawn tree the timing models replay.
    """

    program: Program
    tasks: list[Task]
    phases: list[list[Task]]
    children: dict[int, list[Task]]

    @property
    def total_work(self) -> float:
        """Sum of all task work estimates."""
        return sum(t.work for t in self.tasks)

    @property
    def task_count(self) -> int:
        """Number of tasks in the full expansion."""
        return len(self.tasks)

    def reset_run_flags(self) -> None:
        """Clear the per-run flags a timing model sets on each task
        (``started``, ``completed``, ``lane_id``), so several timing runs
        can replay one elaboration."""
        for task in self.tasks:
            task.started = False
            task.completed = False
            task.lane_id = None


def expand_program(program: Program) -> ExpandedProgram:
    """Run every kernel functionally (no timing), collecting all tasks.

    Tasks execute in breadth-first spawn order, which respects ``after``
    and ``stream_from`` dependences because a child is always created by
    (and ordered after) its producers' spawner. A task listed or spawned
    twice is kept in the task list (graph validation reports it) but its
    kernel never runs twice. Phases group tasks by dependence depth:
    phase k contains every task with ``depth == k``, which is the barrier
    structure a static-parallel port would use.

    Memoized on ``program``: the first call mutates ``program.state``,
    every later call returns the same expansion without running a kernel.
    """
    if program._expansion is not None:
        return program._expansion
    queue = deque(program.initial_tasks)
    all_tasks: list[Task] = []
    children: dict[int, list[Task]] = {}
    while queue:
        task = queue.popleft()
        all_tasks.append(task)
        if task.task_id in children:
            continue
        spawned = children[task.task_id] = run_kernel(task, program.state)
        queue.extend(spawned)
    max_depth = max(t.depth for t in all_tasks)
    phases: list[list[Task]] = [[] for _ in range(max_depth + 1)]
    for task in all_tasks:
        phases[task.depth].append(task)
    program._expansion = ExpandedProgram(program, all_tasks, phases,
                                         children)
    return program._expansion


def partition_block(tasks: Sequence[Task], lanes: int) -> list[list[Task]]:
    """Static block partition: contiguous, near-equal *task counts*.

    This is the work-oblivious split a static-parallel design bakes in at
    compile time — the thing work-aware balancing improves on.
    """
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    n = len(tasks)
    base, extra = divmod(n, lanes)
    out: list[list[Task]] = []
    start = 0
    for lane in range(lanes):
        size = base + (1 if lane < extra else 0)
        out.append(list(tasks[start:start + size]))
        start += size
    return out


def partition_cyclic(tasks: Sequence[Task], lanes: int) -> list[list[Task]]:
    """Static cyclic partition (round-robin by index)."""
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    out: list[list[Task]] = [[] for _ in range(lanes)]
    for index, task in enumerate(tasks):
        out[index % lanes].append(task)
    return out
