"""Functional once, timing many.

A program's kernels run exactly once: :func:`repro.core.program.
expand_program` elaborates it breadth-first and memoizes the spawn tree
on the program. Delta and the static baseline are timing replays of that
elaboration. These tests pin what follows from it:

- timing runs that share one program report what runs on fresh builds
  report, in any order;
- ``compare()`` builds, elaborates and checks each point once;
- ``compare()`` refuses a run that retired a different number of tasks
  than the elaboration holds.
"""

import dataclasses

import pytest

from repro.arch.config import default_baseline_config, default_delta_config
from repro.baseline.static import StaticParallel
from repro.core import program as program_module
from repro.core.delta import Delta
from repro.eval import runner
from repro.util.fingerprint import comparison_fingerprint, result_stats
from repro.workloads.registry import get_workload, workload_names
from tests.test_golden_fingerprints import load_golden, point_key

LANES = 8


@pytest.mark.parametrize("name", workload_names())
def test_timing_models_replay_one_program(name):
    """Delta, then static, then Delta again on one program: each run
    matches the frozen fingerprint of fresh builds at this point."""
    workload = get_workload(name)
    program = workload.build_program()
    delta = Delta(default_delta_config(lanes=LANES))
    first = delta.run(program)
    static = StaticParallel(default_baseline_config(lanes=LANES)).run(
        program)
    again = delta.run(program)
    assert comparison_fingerprint(
        runner.Comparison(workload.name, first, static)) == \
        load_golden()[point_key(name, LANES)]
    assert result_stats(again) == result_stats(first)
    workload.check(program.state)


class _Counted:
    """A workload whose builds, checks and kernel calls are counted."""

    def __init__(self, workload, monkeypatch):
        self.builds, self.checks, self.kernels = 0, 0, 0
        self.programs = []
        build, check = workload.build_program, workload.check
        run_kernel = program_module.run_kernel

        def counted_build():
            self.builds += 1
            self.programs.append(build())
            return self.programs[-1]

        def counted_check(state):
            self.checks += 1
            return check(state)

        def counted_kernel(task, state):
            self.kernels += 1
            return run_kernel(task, state)

        monkeypatch.setattr(workload, "build_program", counted_build)
        monkeypatch.setattr(workload, "check", counted_check)
        monkeypatch.setattr(program_module, "run_kernel", counted_kernel)


@pytest.mark.parametrize("policy", ["work-aware", "critical-path"])
def test_compare_builds_elaborates_and_checks_once(policy, monkeypatch):
    workload = get_workload("micro-tree")
    counted = _Counted(workload, monkeypatch)
    runner.compare(workload,
                   default_delta_config(lanes=4).with_policy(policy))
    assert counted.builds == 1
    assert counted.checks == 1
    # One elaboration: every task's kernel ran exactly once.
    elaborated = program_module.expand_program(counted.programs[0])
    assert elaborated.task_count > 1
    assert counted.kernels == elaborated.task_count


def test_compare_rejects_a_run_that_lost_a_task(monkeypatch):
    class LossyDelta(Delta):
        def run(self, *args, **kwargs):
            result = super().run(*args, **kwargs)
            return dataclasses.replace(
                result, tasks_executed=result.tasks_executed - 1)

    monkeypatch.setattr(runner, "Delta", LossyDelta)
    with pytest.raises(RuntimeError, match="delta run retired"):
        runner.compare(get_workload("micro-chain"), verify=False)
