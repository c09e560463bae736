"""The number of scheduling slots one suite pass drains.

Every Event, Timeout, process resume and bare call slot occupies one
position in the calendar queue. Replacing one of those forms by another
at the same position keeps the simulated timing bit-identical *and*
keeps this count; a rewrite that adds, drops or merges a slot moves it.
The count is pinned here so a hot-path refactor of the event kernel or
of the component models shows up as a named number, next to the
fingerprints in ``tests/golden_fingerprints.json`` that pin the timing.
"""

from repro.arch.config import default_baseline_config, default_delta_config
from repro.baseline.static import StaticParallel
from repro.core.delta import Delta
from repro.sim.engine import total_events_processed
from repro.workloads.registry import get_workload, workload_names

LANES = 8

#: Slots drained by one pass: every registered workload, Delta then the
#: static baseline, default configurations, one fresh program each.
SLOTS_PER_PASS = 245_829


def test_des_slot_count_per_suite_pass():
    names = workload_names()
    assert len(names) == 18
    start = total_events_processed()
    for name in names:
        program = get_workload(name).build_program()
        Delta(default_delta_config(lanes=LANES)).run(program)
        StaticParallel(default_baseline_config(lanes=LANES)).run(program)
    assert total_events_processed() - start == SLOTS_PER_PASS
