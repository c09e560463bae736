"""Self-tests of the benchmark: ``python3 -m pytest -q hostbench``.

They check the benchmark, not the program: the percentile rule, the seeded
generators, the ledger's wrapping, and that ``BENCHMARK.json`` and the
printed metrics agree name for name and unit for unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import benchdefs  # noqa: E402
import ledger  # noqa: E402
import libload  # noqa: E402
import serveload  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentiles ------------------------------------------------------------

@pytest.mark.parametrize("count", range(1, 260))
def test_tail_leaves_ten_samples_beyond(count):
    samples = [float(i) for i in range(count)]
    percentile, value = benchdefs.tail(samples)
    beyond = sum(s > value for s in samples)
    if percentile is None:
        assert beyond < benchdefs.TAIL_MIN_BEYOND
        return
    assert beyond >= benchdefs.TAIL_MIN_BEYOND
    for p in benchdefs.TAIL_LADDER:  # no higher percentile qualified
        if p > percentile:
            higher = benchdefs.percentile(samples, p)
            assert sum(s > higher for s in samples) < benchdefs.TAIL_MIN_BEYOND


def test_tail_reaches_p90_with_enough_samples():
    assert benchdefs.tail(list(range(101))) == (90, 90)
    assert benchdefs.tail(list(range(92)))[0] == 90
    assert benchdefs.tail(list(range(91)))[0] == 75
    assert benchdefs.tail(list(range(19)))[0] is None
    assert benchdefs.percentile([1, 2, 3, 4], 50) == 2.5


# -- generators ---------------------------------------------------------------

def test_job_mix_is_deterministic_and_half_repeats():
    mix = serveload.job_mix(5, rounds=400)
    assert mix == serveload.job_mix(5, rounds=400)
    assert mix != serveload.job_mix(6, rounds=400)
    assert 0.4 < serveload.repeat_share(mix) < 0.6
    assert any(a == dict(b, tenant=a["tenant"]) for a, b in mix)  # coalescible


def test_job_mix_specs_are_valid_jobs():
    from repro.serve.protocol import parse_job_spec

    for pair in serveload.job_mix(3, rounds=50):
        for spec in pair:
            parsed = parse_job_spec(spec)
            assert len(parsed.workloads) == serveload.JOB_POINTS


def _inputs(batch) -> list:
    return [(type(point[0]).__name__, getattr(point[0], "seed", None),
             point[1].dispatch.policy, point[1].lanes)
            for job in batch for point in job.points]


def test_library_generators_are_seeded():
    from repro.workloads.registry import workload_names

    first = next(libload.suite_jobs(4))
    assert len(first) == len(workload_names()) == 18
    assert _inputs(first) == _inputs(next(libload.suite_jobs(4)))
    assert _inputs(first) != _inputs(next(libload.suite_jobs(5)))
    grid = next(libload.grid_jobs(4))
    assert len(grid) == 16 and all(len(job.points) == 2 for job in grid)
    assert _inputs(grid) == _inputs(next(libload.grid_jobs(4)))
    assert _inputs(grid) != _inputs(next(libload.grid_jobs(5)))
    assert {i[2] for i in _inputs(grid)} == set(libload.GRID_POLICIES)


# -- the ledger ---------------------------------------------------------------

def test_ledger_wraps_every_recover_structure_binding(tmp_path):
    import repro.baseline.static
    import repro.graph.cache
    import repro.graph.ir
    import repro.sched.structure

    original = repro.graph.ir.recover_structure
    record = ledger.Ledger(tmp_path)
    record.install()
    try:
        for module in (repro.baseline.static, repro.sched.structure,
                       repro.graph.cache, repro.graph.ir):
            assert module.recover_structure is not original
        from repro.eval.runner import compare
        from repro.workloads import get_workload

        compare(get_workload("micro-chain"))
    finally:
        record.uninstall()
    assert repro.baseline.static.recover_structure is original
    totals = ledger.SpanTotals(record.spans)
    assert totals.calls["eval.compare"] == 1
    assert totals.calls["graph.recover_structure"] == 1
    assert totals.calls["workloads.check"] == 2
    assert totals.extra["delta.run"]["events"] > 0
    assert 0 <= totals.self_s["eval.compare"] < totals.busy["eval.compare"]


def test_self_time_subtracts_children():
    spans = [("outer", 1, 1, 1, 0, 0.0, 10.0, None),
             ("inner", 1, 1, 2, 1, 1.0, 4.0, None),
             ("inner", 1, 1, 3, 1, 5.0, 6.0, None)]
    totals = ledger.SpanTotals(spans)
    assert totals.self_s["outer"] == pytest.approx(6.0)
    assert totals.busy["outer"] == pytest.approx(10.0)
    assert totals.calls["inner"] == 2


# -- BENCHMARK.json and the printed metrics -----------------------------------

def test_benchmark_json_names_every_metric_and_workload():
    spec = _spec()
    assert spec["command"] == ["python3", "hostbench/run.py"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == benchdefs.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == benchdefs.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == benchdefs.WORKLOADS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_result_line_demands_exactly_the_declared_metrics():
    values = {name: 1.5 for name in benchdefs.END_TO_END}
    line = json.loads(benchdefs.result_line(True, 3, 0, values,
                                            benchdefs.END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} \
        == benchdefs.END_TO_END
    with pytest.raises(ValueError):
        benchdefs.result_line(True, 3, 0, dict(values, extra=1.0),
                              benchdefs.END_TO_END)


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", benchdefs.WORKLOADS)
def test_run_prints_every_declared_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    printed = {line.split()[0]: line.split()[2] for line in lines[1:-1]
               if len(line.split()) >= 3}
    for metric in declared:
        assert printed[metric["name"]] == metric["unit"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "suite-cold", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
