"""The TaskGraph IR: one program's recovered inter-task structure.

:func:`recover_structure` reads a program's one functional elaboration —
:func:`repro.core.program.expand_program`, memoized on the program, which
runs every kernel once and records the spawn tree — and derives *typed*
dependence edges from it. It runs no kernel itself.

- ``AFTER``  — completion ordering (``after=[...]`` at spawn).
- ``STREAM`` — pipelined producer→consumer streams (``stream_from=[...]``);
  the consumer may co-schedule with its producer.
- ``SPAWN``  — parent kernel → child task. A child cannot exist before its
  spawner has started, but does not wait for the spawner to finish.

The graph validates on construction (see :meth:`TaskGraph.validate`):
dangling dependences — a task whose ``after``/``stream_from`` references a
producer that was never spawned, which the legacy expansion silently
accepted and the runtimes then stalled on — raise a diagnostic
:class:`GraphValidationError`, as do duplicate task instances, dependence
cycles, and non-finite or negative work estimates.

Legacy consumers keep working: :meth:`TaskGraph.phases` and
:meth:`TaskGraph.as_expanded` hand back the elaboration's own
barrier-phase structure.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.core.program import ExpandedProgram, Program, expand_program
from repro.core.task import Task


class GraphValidationError(ValueError):
    """A recovered task graph is structurally malformed."""


class EdgeKind(enum.Enum):
    """The dependence type of one edge in the IR."""

    AFTER = "after"
    STREAM = "stream"
    SPAWN = "spawn"


@dataclass(frozen=True)
class Edge:
    """One typed dependence edge, by task id (src must precede dst)."""

    src: int
    dst: int
    kind: EdgeKind


class TaskGraph:
    """The fully elaborated, typed task graph of one program run.

    A typed view over the program's one elaboration: ``tasks`` is in
    spawn (BFS) order, exactly as :func:`~repro.core.program.
    expand_program` produced it. Adjacency is exposed as
    ``predecessors``/``successors`` (task id → list of
    ``(task id, EdgeKind)``).
    """

    def __init__(self, expanded: ExpandedProgram,
                 edges: list[Edge]) -> None:
        self.expanded = expanded
        self.program = expanded.program
        self.tasks = tasks = expanded.tasks
        self.edges = edges
        self.nodes: dict[int, Task] = {t.task_id: t for t in tasks}
        self.predecessors: dict[int, list[tuple[int, EdgeKind]]] = {
            t.task_id: [] for t in tasks}
        self.successors: dict[int, list[tuple[int, EdgeKind]]] = {
            t.task_id: [] for t in tasks}
        for edge in edges:
            if edge.src in self.successors:
                self.successors[edge.src].append((edge.dst, edge.kind))
            if edge.dst in self.predecessors:
                self.predecessors[edge.dst].append((edge.src, edge.kind))

    # -- basic queries -------------------------------------------------------

    @property
    def task_count(self) -> int:
        """Number of tasks in the graph."""
        return len(self.tasks)

    @property
    def total_work(self) -> float:
        """Sum of all task work estimates (T1 in Brent's bound)."""
        return sum(t.work for t in self.tasks)

    def node(self, task_id: int) -> Task:
        """The task with ``task_id``."""
        return self.nodes[task_id]

    def edges_of_kind(self, kind: EdgeKind) -> list[Edge]:
        """Every edge of one dependence type."""
        return [e for e in self.edges if e.kind == kind]

    def __len__(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TaskGraph {self.program.name!r} tasks={len(self.tasks)} "
                f"edges={len(self.edges)}>")

    # -- legacy views --------------------------------------------------------

    @property
    def phases(self) -> list[list[Task]]:
        """Barrier phases (tasks grouped by dependence depth, spawn order):
        the elaboration's own, which the static-parallel baseline
        partitions."""
        return self.expanded.phases

    def as_expanded(self) -> ExpandedProgram:
        """The elaboration this IR is a typed view over."""
        return self.expanded

    # -- ordering ------------------------------------------------------------

    def topological_order(self) -> list[Task]:
        """Tasks in dependence order (raises on cycles).

        Kahn's algorithm over all edge kinds, seeded in spawn order so the
        result is deterministic.
        """
        indegree = {t.task_id: len(self.predecessors[t.task_id])
                    for t in self.tasks}
        ready = deque(t.task_id for t in self.tasks
                      if indegree[t.task_id] == 0)
        order: list[Task] = []
        while ready:
            task_id = ready.popleft()
            order.append(self.nodes[task_id])
            for succ, _kind in self.successors[task_id]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.tasks):
            stuck = sorted(task_id for task_id, d in indegree.items()
                           if d > 0)
            names = ", ".join(self.nodes[i].name for i in stuck[:5])
            raise GraphValidationError(
                f"program {self.program.name!r}: dependence cycle through "
                f"{len(stuck)} task(s) ({names}{', ...' if len(stuck) > 5 else ''})")
        return order

    # -- validation ----------------------------------------------------------

    def validate(self) -> "TaskGraph":
        """Check structural invariants; returns self so calls chain.

        Raises :class:`GraphValidationError` on:

        - *duplicate tasks* — the same instance spawned or listed twice;
        - *dangling dependences* — an ``after``/``stream_from`` edge whose
          producer was never spawned (the program would stall waiting for
          a task that never runs; the legacy expansion accepted this
          silently);
        - *dependence cycles* (``after``/``stream``/``spawn`` combined);
        - *work-estimate insanity* — a negative, NaN or infinite work
          estimate, which would corrupt every downstream analysis and the
          work-aware dispatcher.
        """
        seen: set[int] = set()
        for task in self.tasks:
            if task.task_id in seen:
                raise GraphValidationError(
                    f"program {self.program.name!r}: task {task.name} "
                    f"appears more than once in the expansion")
            seen.add(task.task_id)
        for task in self.tasks:
            for dep, label in [(d, "after") for d in task.after] + \
                              [(d, "stream_from") for d in task.stream_from]:
                if dep.task_id not in self.nodes:
                    raise GraphValidationError(
                        f"program {self.program.name!r}: task {task.name} "
                        f"{label}-depends on {dep.name}, which is never "
                        f"spawned — the program would stall waiting for it")
        self.topological_order()
        for task in self.tasks:
            work = task.work
            if not math.isfinite(work) or work < 0:
                raise GraphValidationError(
                    f"program {self.program.name!r}: task {task.name} has "
                    f"an invalid work estimate ({work!r}); work must be "
                    f"finite and non-negative")
        return self


def _typed_edges(expanded: ExpandedProgram) -> list[Edge]:
    """Derive the typed edge list from task fields plus the spawn tree."""
    edges: list[Edge] = []
    for task in expanded.tasks:
        for dep in task.after:
            edges.append(Edge(dep.task_id, task.task_id, EdgeKind.AFTER))
        for producer in task.stream_from:
            edges.append(Edge(producer.task_id, task.task_id,
                              EdgeKind.STREAM))
    for parent, children in expanded.children.items():
        edges.extend(Edge(parent, child.task_id, EdgeKind.SPAWN)
                     for child in children)
    return edges


def recover_structure(program: Program,
                      validate: bool = True) -> TaskGraph:
    """Recover ``program``'s full typed task graph.

    The tasks and spawn edges come from the program's one functional
    elaboration (:func:`repro.core.program.expand_program`, memoized on
    ``program``: the first caller runs the kernels, every later caller —
    a timing model, another recovery — reuses them). The typed
    dependence edges derive from the task annotations.

    With ``validate=True`` (the default) the graph is checked before it is
    returned; malformed programs raise :class:`GraphValidationError` with
    a diagnostic instead of expanding silently.
    """
    expanded = expand_program(program)
    graph = TaskGraph(expanded, _typed_edges(expanded))
    if validate:
        graph.validate()
    return graph


def recover_structure_quiet(program: Program) -> Optional[TaskGraph]:
    """Like :func:`recover_structure` but returns None on validation
    failure (for exploratory tooling that must not raise)."""
    try:
        return recover_structure(program)
    except GraphValidationError:
        return None
