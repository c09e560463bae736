"""The event kernel reproduces the retired heap kernel bit for bit.

The simulator once had two event kernels: a heap-ordered reference kernel
and the calendar-queue kernel that is now :class:`repro.sim.Environment`.
The reference kernel is gone; its behaviour survives as the fingerprints
it produced, frozen in ``tests/golden_fingerprints.json``. This module
keeps the two checks that were written against both kernels, now against
the one kernel and that frozen oracle:

- every registered workload at two lane counts matches the heap kernel's
  frozen comparison fingerprint, and two runs on freshly built programs
  agree field by field (fingerprint, :class:`RunResult` fields, the full
  counter bag, the MetricsBus views);
- the bounded :class:`Store` delivers in FIFO order under backpressure in
  both ways the kernel drives it: from generator processes, and from the
  continuation callbacks and call slots the stream pumps use. The test ids
  keep the names of the kernel classes that first exercised each form.
"""

from __future__ import annotations

import pytest

from repro.arch.config import default_delta_config
from repro.eval.runner import compare
from repro.machine.metrics import MetricsBus
from repro.sim import Environment, Store
from repro.util.fingerprint import (
    comparison_fingerprint,
    result_fingerprint,
    result_stats,
)
from repro.workloads.registry import get_workload, workload_names
from tests.test_golden_fingerprints import load_golden, point_key

LANE_COUNTS = [2, 8]


def _compare(workload_name: str, lanes: int):
    """One Delta-vs-static comparison on a freshly built program.

    Programs are stateful across runs, so each call builds its own.
    """
    return compare(get_workload(workload_name),
                   default_delta_config(lanes=lanes), verify=False)


def _assert_results_identical(first, second, label: str) -> None:
    """Field-by-field bit-identity of two RunResults."""
    assert result_fingerprint(second) == result_fingerprint(first), (
        f"{label}: fingerprint diverged\n"
        f"  first:  {result_stats(first)}\n"
        f"  second: {result_stats(second)}")
    # The fingerprint already covers these, but asserting them separately
    # gives a readable diff when a future change breaks one field.
    assert second.machine == first.machine
    assert second.program_name == first.program_name
    assert second.cycles == first.cycles
    assert second.tasks_executed == first.tasks_executed
    assert second.lane_busy == first.lane_busy
    assert second.counters.snapshot() == first.counters.snapshot()
    first_metrics, second_metrics = first.metrics, second.metrics
    assert isinstance(second_metrics, MetricsBus)
    assert second_metrics.dram.total_bytes == first_metrics.dram.total_bytes
    assert second_metrics.noc.bytes == first_metrics.noc.bytes
    assert second.imbalance_cv == first.imbalance_cv


# ------------------------------------------------- full workload matrix

@pytest.mark.parametrize("lanes", LANE_COUNTS)
@pytest.mark.parametrize("workload_name", workload_names())
def test_engines_bit_identical_on_workload(workload_name, lanes):
    """Every registered workload, both runtimes, both lane counts."""
    first = _compare(workload_name, lanes)
    second = _compare(workload_name, lanes)
    label = point_key(workload_name, lanes)
    _assert_results_identical(first.delta, second.delta, f"{label} [delta]")
    _assert_results_identical(first.static, second.static,
                              f"{label} [static]")
    assert comparison_fingerprint(first) == load_golden()[label], (
        f"{label}: no longer matches the heap kernel's frozen fingerprint")


# ------------------------------------------------- kernel primitives

def _store_via_processes(env: Environment, store: Store,
                         received: list, put_times: list) -> None:
    """Producer and consumer as generator processes."""
    def producer():
        for item in range(7):
            yield store.put(item)
            put_times.append(env.now)
        store.close()

    def consumer():
        while True:
            yield env.timeout(1)
            got = yield store.get()
            if got is Store.END:
                return
            received.append(got)

    env.process(producer())
    env.process(consumer())


def _store_via_call_slots(env: Environment, store: Store,
                          received: list, put_times: list) -> None:
    """Producer and consumer as continuations on ``put_then``/``get_then``,
    started from call slots — the shape of the stream pumps in
    :mod:`repro.arch`."""
    def put_next(item):
        if item == 7:
            store.close()
            return

        def after_put(_arg):
            put_times.append(env.now)
            put_next(item + 1)

        store.put_then(item, after_put)

    def on_item(item):
        if item is Store.END:
            return
        received.append(item)
        env._schedule_call(get_next, at=env.now + 1)

    def get_next(_arg=None):
        store.get_then(on_item)

    env._schedule_call(put_next, 0)
    env._schedule_call(get_next, at=1)


@pytest.mark.parametrize("drive", [_store_via_processes,
                                   _store_via_call_slots],
                         ids=["Environment", "FastEnvironment"])
def test_store_fifo_under_both_kernels(drive):
    """A capacity-2 Store fed faster than it drains delivers seven items
    in order, then END; the producer blocks once the Store is full."""
    env = Environment()
    store = Store(env, capacity=2)
    received, put_times = [], []
    drive(env, store, received, put_times)
    env.run()
    assert received == list(range(7))
    # Two puts fit at once; each later put waits for the once-per-cycle
    # consumer to free a slot.
    assert put_times == [0, 0, 1, 2, 3, 4, 5]
    assert store.total_put == 7
    assert store.level == 0
