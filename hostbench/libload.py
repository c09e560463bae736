"""Library workloads: ``suite-cold`` and ``config-grid``.

Both drive the evaluation harness in-process, the way ``repro eval`` does:

- ``suite-cold`` runs one verified :func:`repro.eval.runner.compare` per
  registered workload, serially, without a cache. Every pass builds fresh
  inputs from the seed, so no point repeats.
- ``config-grid`` runs four kernel-heavy inputs across dispatch policies
  and lane counts through :func:`repro.eval.parallel.run_points` on two
  worker processes. Within a round the same input repeats across eight
  configurations, so repeated functional work dominates.

A *job* is a group of points requested together (one for suite-cold, two
for config-grid); a point's latency runs from its job's start to its
delivery.
Run as a script, this module is the set-up probe: it imports the program,
builds the first job's inputs and prints ``ready``.
"""

from __future__ import annotations

import inspect
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

#: Points per suite-cold job: one, as in ``repro compare <workload>``.
SUITE_JOB_POINTS = 1

#: config-grid inputs: registered name -> constructor sizes, shrunk from
#: the defaults so a run holds a few hundred jobs; wavefront stays the
#: kernel-heaviest input.
GRID_KERNELS = (("wavefront", {"tiles": 5, "tile_size": 20}),
                ("knn", {"num_points": 1024}),
                ("stencil-amr", {"num_tiles": 24}),
                ("cholesky", {"tiles": 5}))
#: Dispatch policies in the grid, three of which read recovered structure.
GRID_POLICIES = ("work-aware", "critical-path", "steal-tuned",
                 "block-partition")
GRID_LANES = (4, 8)
#: Worker processes for run_points (the box has two cores).
GRID_WORKERS = 2

SEED_SPACE = 2 ** 31


@dataclass
class Job:
    """One group of points: their specs, and what came back."""

    points: list  # PointSpec tuples, see repro.eval.parallel
    #: (point index, seconds from job start, Comparison) per delivery.
    delivered: list = field(default_factory=list)
    failed: int = 0
    start: float = 0.0
    end: float = 0.0


def _workload_class(name: str) -> type:
    from repro.workloads import get_workload

    return type(get_workload(name))


def _build(cls: type, seed: int, sizes: dict):
    if "seed" in inspect.signature(cls).parameters:
        return cls(seed=seed, **sizes)
    return cls(**sizes)


def suite_jobs(seed: int) -> Iterator[list[Job]]:
    """suite-cold passes: every registered workload once, fresh inputs,
    in registry order, grouped into jobs."""
    from repro.arch.config import default_delta_config
    from repro.workloads.registry import workload_names

    classes = [_workload_class(name) for name in workload_names()]
    delta_config = default_delta_config(lanes=8)
    for index in range(sys.maxsize):
        rng = random.Random(f"suite-cold:{seed}:{index}")
        points = [(_build(cls, rng.randrange(SEED_SPACE), {}), delta_config)
                  for cls in classes]
        yield [Job(points[i:i + SUITE_JOB_POINTS])
               for i in range(0, len(points), SUITE_JOB_POINTS)]


def grid_jobs(seed: int) -> Iterator[list[Job]]:
    """config-grid rounds: fresh inputs, each run across all policies (in
    fixed pairs, one pair per job) and lane counts, in a seeded job
    order."""
    from repro.arch.config import default_baseline_config, default_delta_config

    classes = [(_workload_class(name), sizes) for name, sizes in GRID_KERNELS]
    for index in range(sys.maxsize):
        rng = random.Random(f"config-grid:{seed}:{index}")
        inputs = [_build(cls, rng.randrange(SEED_SPACE), sizes)
                  for cls, sizes in classes]
        policies = GRID_POLICIES
        jobs = []
        for workload in inputs:
            for lanes in GRID_LANES:
                static_config = default_baseline_config(lanes=lanes)
                for pair in range(0, len(policies), 2):
                    jobs.append(Job([
                        (workload,
                         default_delta_config(lanes=lanes).with_policy(policy),
                         static_config, True)
                        for policy in policies[pair:pair + 2]]))
        rng.shuffle(jobs)
        yield jobs


def run_suite_job(job: Job, retries: "Retries") -> None:
    """Serial, uncached, verified compare() of each point."""
    from repro.eval.runner import compare

    job.start = time.perf_counter()
    for index, (workload, delta_config) in enumerate(job.points):
        try:
            comparison = compare(workload, delta_config, verify=True)
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            job.failed += 1
            print(f"suite-cold: {workload.name} failed: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        job.delivered.append((index, time.perf_counter() - job.start,
                              comparison))
    job.end = time.perf_counter()


class Retries:
    """Pool-health counters from run_points (its ``metrics`` sink)."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def run_grid_job(job: Job, retries: Retries) -> None:
    """The job's points through run_points on two worker processes."""
    from repro.eval.parallel import run_points

    outcomes: list = []

    def on_point(index: int, comparison, outcome: str) -> None:
        if comparison is not None:
            job.delivered.append((index, time.perf_counter() - job.start,
                                  comparison))

    job.start = time.perf_counter()
    try:
        run_points(job.points, jobs=GRID_WORKERS, outcomes=outcomes,
                   on_point=on_point, metrics=retries)
    except Exception as exc:  # noqa: BLE001 - counted, then reported
        print(f"config-grid: job failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
    job.end = time.perf_counter()
    job.failed = len(job.points) - len(job.delivered)
    # Every outcome but "ok" means a point ran more than once.
    retries.add("reruns", sum(
        outcome not in ("ok", "cancelled") for outcome in outcomes))


#: workload name -> (job generator, job runner).
WORKLOADS: dict[str, tuple[Callable, Callable]] = {
    "suite-cold": (suite_jobs, run_suite_job),
    "config-grid": (grid_jobs, run_grid_job),
}


def probe(workload: str, seed: int) -> None:
    """Set-up probe: import the harness and build the first job."""
    import repro.eval.parallel  # noqa: F401 - part of getting ready
    import repro.eval.runner  # noqa: F401

    generate, _run = WORKLOADS[workload]
    next(generate(seed))
    print("ready", flush=True)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    probe(sys.argv[1], int(sys.argv[2]))
