"""What the scheduling slots of one suite pass allocate, by name.

``tests/test_des_slot_count.py`` pins *how many* slots a suite pass
drains. This census pins *which* of them are Events (by event name) and
how many generator steps run (by process name), counted from outside
the kernel by ``tools/des_census.py``. Turning a single-waiter Event
or generator resume into a call slot at the same queue position leaves
the slot count and every fingerprint unchanged and moves only these
numbers, so each such rewrite shows here as a named drop.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

import des_census  # noqa: E402  (tools/, path set up above)

#: Events drained per suite pass, by name prefix. Store hand-offs, NoC
#: unicast deliveries, credit grants and chunk landings whose only
#: waiter is a continuation are call slots; the Events left are the
#: ones a generator process or a join waits on.
EVENTS_PER_PASS = {
    "stream_in": 1_867,
    "all_done": 1_763,
    "pipeline": 1_490,
    "dispatch.wake": 1_250,
    "Timeout": 1_158,
    "stream_out": 1_152,
    "get": 745,
    "put": 745,
    "pull": 403,
    "static": 351,
    "fanout": 304,
    "read_resident": 304,
    "started": 303,
    "completed": 35,
    "mcast": 28,
    "dispatch.drained": 18,
    "static-main": 18,
    "multicast-delivery": 11,
    "drain": 9,
    "unicast-delivery": 3,
}

#: Generator steps per suite pass, by process name prefix: only the
#: dispatcher, the Delta workers, the static drivers and the multicast
#: manager are generator processes.
STEPS_PER_PASS = {
    "dispatcher": 2_758,
    "worker": 2_662,
    "static": 2_031,
    "static-main": 109,
    "mcast": 56,
}


def test_des_census_per_suite_pass():
    result = des_census.suite_pass_census(lanes=8)
    assert dict(result.events) == EVENTS_PER_PASS
    assert dict(result.steps) == STEPS_PER_PASS
    assert result.total_events == 11_957
    assert result.total_steps == 7_616


def test_census_restores_the_kernel():
    from repro.sim.engine import Environment, Event, Process

    process, step = Event._process, Process._step
    with des_census.census() as result:
        env = Environment()

        def proc():
            yield env.timeout(1)
            yield env.event(name="probe:x").succeed()

        env.process(proc(), name="unit:0")
        env.run()
    assert Event._process is process and Process._step is step
    # Two steps resume on Events (Timeout, probe); one starts the
    # generator; the Process itself is an Event when it returns.
    assert dict(result.events) == {"Timeout": 1, "probe": 1, "unit": 1}
    assert dict(result.steps) == {"unit": 3}
