"""Dependence annotations: the information TaskStream attaches to tasks.

The paper's insight is that task-parallel runtimes erase program structure
when they reduce everything to opaque closures. TaskStream instead keeps
the *communication structure* of each dependence explicit:

- :class:`ReadSpec` with ``shared=True`` names a read-only region that other
  tasks may also read — recoverable as a **multicast**.
- A task spawned with ``stream_from=[producers]`` declares a fine-grained
  producer→consumer dependence — recoverable as a **pipelined stream**
  (the consumer starts as chunks arrive rather than after a barrier).
- :class:`WorkHint` carries a work estimate — recoverable as **work-aware
  load balancing** instead of task-count balancing.

These are plain data; the mechanisms that exploit them live in the
dispatcher, multicast manager, and the Delta execution engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


def _check_nbytes(spec: str, nbytes: float) -> None:
    """A transfer size is a whole, non-negative number of bytes.

    Streams move whole chunks, so a fractional size could not reconcile:
    the chunker would move the floor of it while the stream counters add
    the fraction. Integers of any kind and whole floats are accepted.
    """
    if nbytes < 0:
        raise ValueError(f"{spec} nbytes must be >= 0: {nbytes}")
    if not float(nbytes).is_integer():
        raise ValueError(f"{spec} nbytes must be a whole number: {nbytes}")


@dataclass(frozen=True)
class ReadSpec:
    """One input of a task.

    Parameters
    ----------
    nbytes:
        Size of the input data.
    region:
        Name of the memory region. Required when ``shared`` is True (it is
        the coalescing key for multicast); optional otherwise.
    locality:
        Row locality in [0, 1]; 1.0 = fully sequential stream.
    shared:
        Marks the region read-only and potentially read by other tasks.
    """

    nbytes: int
    region: Optional[str] = None
    locality: float = 1.0
    shared: bool = False

    def __post_init__(self) -> None:
        _check_nbytes("ReadSpec", self.nbytes)
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError(f"ReadSpec locality in [0,1]: {self.locality}")
        if self.shared and not self.region:
            raise ValueError("shared ReadSpec requires a region name")


@dataclass(frozen=True)
class WriteSpec:
    """One output of a task (bytes written back to memory)."""

    nbytes: int
    locality: float = 1.0

    def __post_init__(self) -> None:
        _check_nbytes("WriteSpec", self.nbytes)
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError(f"WriteSpec locality in [0,1]: {self.locality}")


@dataclass(frozen=True)
class WorkHint:
    """A work-estimate expression attached to a task type.

    ``estimate`` maps the task's arguments to an abstract work amount
    (commonly the loop trip count, e.g. a row's nnz). The dispatcher's
    work-aware policy balances the *sum of estimates* per lane. Estimates
    need not be exact — the paper's point is that even coarse hints beat
    task-count balancing on skewed workloads.
    """

    estimate: Callable[[dict], float]

    def __call__(self, args: dict) -> float:
        value = float(self.estimate(args))
        if value < 0:
            raise ValueError(f"work estimate must be >= 0, got {value}")
        return value
