"""Frozen run fingerprints: the repo-wide bit-identity regression gate.

``tests/golden_fingerprints.json`` pins one fingerprint per point of the
frozen matrix:

- every registered workload at two lane counts (``bfs@lanes=2``), the
  plain Delta-vs-static :func:`comparison_fingerprint`;
- the same grid under the policy tournament's canned fault plan
  (``+faults=canned``), under the CI ``faults`` job's ``plan.json`` with
  NoC drops and DRAM spikes (``+faults=ci``), under the online
  ``round-robin``, ``steal`` and ``random`` dispatch policies, and under
  the structure-reading ``critical-path``, ``steal-tuned`` and
  ``block-partition`` policies (``+policy=<name>``);
- a fixed list of seeded random programs on seeded random machine
  configurations (``random-program-NN``), Delta and the static baseline.

Any change to simulated timing, counter accounting or scheduling order
shows up here as a named point diff. This is deliberately stricter than
the golden *report* regression (tests/test_golden_regression.py, 1%
tolerance on parsed tables): a fingerprint flip means bit-level behaviour
moved. When a change is intentional, regenerate the file::

    PYTHONPATH=src python tools/freeze_fingerprints.py

and review the diff like any other golden update.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable

import pytest

from repro.arch.config import (
    MachineConfig,
    default_baseline_config,
    default_delta_config,
)
from repro.baseline.static import StaticParallel
from repro.core.delta import Delta
from repro.eval.policy_matrix import canned_fault_plan
from repro.eval.runner import compare
from repro.sim.faults import FaultPlan
from repro.util.fingerprint import (
    comparison_fingerprint,
    result_fingerprint,
    stable_hash,
)
from repro.util.rng import DeterministicRng
from repro.workloads.registry import get_workload, workload_names
from tests.test_properties import FEATURE_COMBOS, build_program_from_spec

GOLDEN_PATH = Path(__file__).parent / "golden_fingerprints.json"
CI_PATH = Path(__file__).parent.parent / ".github" / "workflows" / "ci.yml"

LANE_COUNTS = (2, 8)

#: The CI ``faults`` job's ``plan.json`` (kept in sync by
#: :func:`test_ci_fault_plan_matches_workflow`).
CI_FAULT_PLAN = {"task_fault_rate": 0.05, "noc_drop_rate": 0.005,
                 "dram_spike_rate": 0.02, "dram_spike_cycles": 200,
                 "retry": {"max_attempts": 5, "backoff_cycles": 64}}

#: Config transforms of the workload grid, keyed by their key suffix:
#: plain, two fault plans, and the dispatch policies frozen beside the
#: default ``work-aware`` one.
VARIANTS: dict[str, Callable[[MachineConfig], MachineConfig]] = {
    "": lambda config: config,
    "+faults=canned": lambda config: config.with_faults(canned_fault_plan()),
    "+faults=ci": lambda config: config.with_faults(
        FaultPlan.from_json(CI_FAULT_PLAN)),
    **{f"+policy={policy}": partial(MachineConfig.with_policy, policy=policy)
       for policy in ("round-robin", "steal", "random", "critical-path",
                      "steal-tuned", "block-partition")},
}

#: How many seeded random-program points the matrix carries.
RANDOM_POINTS = 30


def point_key(workload_name: str, lanes: int, variant: str = "") -> str:
    return f"{workload_name}@lanes={lanes}{variant}"


def compute_fingerprint(workload_name: str, lanes: int,
                        variant: str = "") -> str:
    """The canonical fingerprint of one workload grid point.

    Runs the ordinary Delta-vs-static comparison with a fresh program
    (``verify=False``: functional checking is a separate test concern) and
    digests both sides' :func:`result_stats`.
    """
    config = VARIANTS[variant](default_delta_config(lanes=lanes))
    comparison = compare(get_workload(workload_name), config, verify=False)
    return comparison_fingerprint(comparison)


# ------------------------------------------------- seeded random points

def seeded_program_spec(rng: DeterministicRng) -> list[tuple]:
    """A dependence-correct random program, in the shape
    :func:`tests.test_properties.random_program_spec` draws."""
    tasks = []
    for i in range(rng.randint(1, 14)):
        trips = rng.randint(1, 400)
        write_kb = rng.choice([0, 64, 256, 1024])
        dep_kind, dep_target = "none", None
        if i > 0:
            dep_kind = rng.choice(["none", "after", "stream"])
            if dep_kind != "none":
                dep_target = rng.randint(0, i - 1)
        tasks.append((trips, write_kb, dep_kind, dep_target,
                      rng.random() < 0.5))
    return tasks


def seeded_machine_config(rng: DeterministicRng) -> MachineConfig:
    """A random Delta config exercising scheduler and NoC variety."""
    config = default_delta_config(
        lanes=rng.choice([1, 2, 4]), seed=rng.randint(0, 7),
        features=rng.choice(FEATURE_COMBOS))
    return replace(
        config,
        dispatch=replace(config.dispatch,
                         policy=rng.choice(["work-aware", "round-robin",
                                            "random", "steal"]),
                         queue_depth=rng.choice([2, 16])),
        lane=replace(config.lane,
                     stream_chunk_bytes=rng.choice([64, 256]),
                     config_cycles=rng.choice([0, 64])),
        noc=replace(config.noc,
                    multicast=rng.random() < 0.5,
                    hop_latency=rng.choice([0, 2])))


def compute_random_fingerprint(index: int) -> str:
    """Delta on a seeded random config plus the static baseline at the
    same lanes and seed, both on one seeded random program."""
    rng = DeterministicRng("golden-random-program", index)
    spec = seeded_program_spec(rng.fork("program"))
    config = seeded_machine_config(rng.fork("machine"))
    delta = Delta(config).run(build_program_from_spec(spec))
    static = StaticParallel(default_baseline_config(
        lanes=config.lanes, seed=config.seed)).run(
            build_program_from_spec(spec))
    for result in (delta, static):
        assert sorted(result.state["ran"]) == list(range(len(spec)))
    return stable_hash(result_fingerprint(delta), result_fingerprint(static))


# ------------------------------------------------- the frozen matrix

def golden_matrix() -> dict[str, Callable[[], str]]:
    """Every frozen point: key -> zero-argument fingerprint computation."""
    matrix = {}
    for variant in VARIANTS:
        for name in workload_names():
            for lanes in LANE_COUNTS:
                matrix[point_key(name, lanes, variant)] = partial(
                    compute_fingerprint, name, lanes, variant)
    for index in range(RANDOM_POINTS):
        matrix[f"random-program-{index:02d}"] = partial(
            compute_random_fingerprint, index)
    return matrix


def load_golden() -> dict[str, str]:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)["fingerprints"]


def test_golden_file_covers_exactly_the_registry():
    """The frozen file and the matrix (registry × variants) agree.

    A newly registered workload (or a renamed one) must be frozen too —
    this fails with the missing/stale keys listed rather than silently
    shrinking the regression surface.
    """
    golden = load_golden()
    expected = set(golden_matrix())
    missing = sorted(expected - set(golden))
    stale = sorted(set(golden) - expected)
    assert not missing and not stale, (
        "golden_fingerprints.json is out of sync with the frozen "
        f"matrix.\n  missing: {missing}\n  stale: {stale}\n"
        "Regenerate: PYTHONPATH=src python tools/freeze_fingerprints.py")


def test_ci_fault_plan_matches_workflow():
    """``CI_FAULT_PLAN`` is the plan the CI ``faults`` job writes."""
    match = re.search(r"cat > plan\.json <<'EOF'\n(.*?)\n\s*EOF",
                      CI_PATH.read_text(), re.DOTALL)
    assert match, "plan.json heredoc not found in the CI workflow"
    assert json.loads(match.group(1)) == CI_FAULT_PLAN


@pytest.mark.parametrize("key", list(golden_matrix()))
def test_fingerprint_matches_golden(key):
    """Each matrix point still produces its frozen fingerprint."""
    golden = load_golden()
    actual = golden_matrix()[key]()
    assert actual == golden[key], (
        f"bit-identity regression at {key}:\n"
        f"  frozen:  {golden[key]}\n"
        f"  current: {actual}\n"
        "Simulated behaviour changed for this point. If the change is "
        "intentional, regenerate with "
        "PYTHONPATH=src python tools/freeze_fingerprints.py and commit "
        "the diff.")
