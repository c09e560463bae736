"""Metric names, units, percentiles and result digests shared by the benchmark.

Every metric the benchmark can print is declared here with its unit, so
``BENCHMARK.json``, the printed table and the final JSON line cannot drift
apart (``test_hostbench.py`` checks all three against each other).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import time
from typing import Optional, Sequence

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "point_s_p50": "s",
    "point_s_p90": "s",
    "job_first_point_s_p50": "s",
    "job_first_point_s_p90": "s",
    "job_done_s_p50": "s",
    "job_done_s_p90": "s",
    "sim_events_per_s": "1/s",
    "verified_frac": "ratio",
    "peak_rss_mb": "MB",
    "speedup_geomean": "ratio",
}

#: Per-layer metrics (``--trace 1``): name -> unit. Grouped by the
#: program layer whose public entry points the ledger wraps.
PER_LAYER = {
    # repro.sim, repro.core.delta, repro.baseline.static
    "delta.run.calls": "count",
    "delta.run.self_s": "s",
    "static.run.calls": "count",
    "static.run.self_s": "s",
    "delta.events": "count",
    "static.events": "count",
    "sim.events": "count",
    "sim.events_per_des_s": "1/s",
    # repro.graph, repro.sched, repro.workloads
    "graph.recover_structure.calls": "count",
    "graph.recover_structure.busy_s": "s",
    "graph.tasks_recovered": "count",
    "sched.hints_from_factory.calls": "count",
    "sched.hints_from_factory.busy_s": "s",
    "workloads.build_program.calls": "count",
    "workloads.build_program.busy_s": "s",
    "workloads.check.calls": "count",
    "workloads.check.busy_s": "s",
    "functional.kernel_passes_per_point": "count",
    "functional.checks_per_point": "count",
    # repro.machine
    "machine.build.calls": "count",
    "machine.build.busy_s": "s",
    # repro.eval
    "eval.compare.calls": "count",
    "eval.compare.self_s": "s",
    "eval.run_points.busy_s": "s",
    "eval.parallel_efficiency": "ratio",
    "eval.cache.get.calls": "count",
    "eval.cache.get.busy_s": "s",
    "eval.cache.put.calls": "count",
    "eval.cache.put.busy_s": "s",
    "eval.cache.hit_ratio": "ratio",
    "eval.retried_points": "count",
    # repro.store
    "store.read.calls": "count",
    "store.read.busy_s": "s",
    "store.read.bytes": "B",
    "store.write.calls": "count",
    "store.write.busy_s": "s",
    "store.write.bytes": "B",
    # repro.serve
    "serve.post_s_p50": "s",
    "serve.queue_wait_s_mean": "s",
    "serve.points": "count",
    "serve.cached_points": "count",
    "serve.computed_points": "count",
    "serve.coalesced_sweeps": "count",
    "serve.useful_compute_ratio": "ratio",
    "serve.shed": "count",
    "serve.rejected": "count",
    "serve.lease_expired": "count",
    "cache.hit_rate": "ratio",
    # the ledger itself
    "trace.points_per_s": "1/s",
    "trace.untraced_points_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}

#: Workload names, as ``--workload`` takes them.
WORKLOADS = ("suite-cold", "config-grid", "serve-overlap")

#: The seed kept out of every tuning run; a performance claim is confirmed
#: on it after the change is written (see README.md).
HELD_OUT_SEED = 7919

#: A tail percentile needs at least this many samples strictly beyond it.
TAIL_MIN_BEYOND = 10

#: The tail percentile reported, then those it may fall back to.
TAIL_LADDER = (90, 75, 50)


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, interpolated linearly between the two
    nearest order statistics (the median at ``p`` = 50)."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(samples: Sequence[float]) -> tuple[Optional[float], float]:
    """``(percentile, value)``: the highest percentile of
    :data:`TAIL_LADDER` that has at least :data:`TAIL_MIN_BEYOND` samples
    strictly beyond it.

    When the sample is too small for even the median to qualify, the
    percentile is ``None`` and the value is the median, so the caller can
    say the tail is unresolved instead of printing a number that means
    something else.
    """
    if not samples:
        raise ValueError("tail() of an empty sample")
    for p in TAIL_LADDER:
        value = percentile(samples, p)
        if sum(s > value for s in samples) >= TAIL_MIN_BEYOND:
            return p, value
    return None, percentile(samples, 50)


# -- machine speed ------------------------------------------------------------
#
# The vCPUs of a shared box change speed by tens of percent from one minute
# to the next (hypervisor steal, contended cores). Every host-time metric is
# therefore scaled to a reference speed: a fixed pure-Python kernel is timed
# while nothing else of the benchmark runs, and a time measured while the
# kernel took k seconds is multiplied by (REFERENCE_KERNEL_S / k) ** e, with
# e from SPEED_EXPONENT. The kernel fits in cache and gains more from a fast
# spell than the simulator does: over 18 runs on a 2-vCPU box, log compare()
# time followed log kernel time with slope 0.60 (spmv), 0.65 (cholesky) and
# 0.82 (wavefront), correlation 0.92-0.94. The server amplifies a slow spell
# instead (its two job threads share one interpreter lock): over ten
# serve-overlap runs, log points/s followed log kernel time with slope 1.2.

#: Seconds :func:`kernel_seconds` takes at the reference speed.
REFERENCE_KERNEL_S = 0.002
#: How strongly each workload's speed, and process set-up, follows the
#: kernel's (see above).
SPEED_EXPONENT = {"suite-cold": 0.7, "config-grid": 0.7, "serve-overlap": 1.2,
                  "setup": 0.7}


def calibration_kernel(n: int = 4000) -> int:
    """Interpreter work of the kind the simulator does: dict and list
    updates, tuple building, integer arithmetic and a sort."""
    table: dict = {}
    items = []
    acc = 0
    for i in range(n):
        key = i & 127
        table[key] = table.get(key, 0) + i
        items.append((key, i))
        acc += len(items) % 7
    items.sort()
    return acc + sum(table.values())


def kernel_seconds(reps: int = 3) -> float:
    """Best of ``reps`` timings of the calibration kernel."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Speedometer:
    """Kernel timings taken through a run, and the scale they imply."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(kernel_seconds())

    def scale(self, workload: str) -> float:
        """Multiply a measured time of ``workload`` by this (divide a rate
        by it)."""
        if not self.samples:
            return 1.0
        return (REFERENCE_KERNEL_S / statistics.median(self.samples)
                ) ** SPEED_EXPONENT[workload]


def metronome(seconds: float, period: float = 0.1) -> list[float]:
    """Kernel timings every ``period`` for ``seconds`` (run in its own
    process beside a server, so it shares no interpreter lock with it)."""
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(kernel_seconds())
        time.sleep(period)
    return samples


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def config_geomean(speedups: dict) -> float:
    """Geometric mean over configurations of each configuration's
    geometric-mean speed-up, so the mix of points a run happened to
    deliver does not weigh in. ``speedups``: configuration -> values."""
    return geomean([geomean(values) for values in speedups.values()])


def point_row(comparison) -> list:
    """The simulated result of one point that a digest covers."""
    return [comparison.workload, comparison.delta.cycles,
            comparison.static.cycles, comparison.delta.dram_bytes,
            comparison.static.dram_bytes]


def digest(rows: Sequence[Sequence]) -> str:
    """Short stable hash of simulated results, in order."""
    blob = json.dumps([list(row) for row in rows], sort_keys=True,
                      default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, float], units: dict[str, str]) -> str:
    """The final JSON line: every metric of ``units`` with its unit."""
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, "
                         f"unexpected {extra}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name in units},
    })


if __name__ == "__main__":
    # python3 benchdefs.py SECONDS: print metronome samples as JSON.
    print(json.dumps(metronome(float(sys.argv[1]))))
