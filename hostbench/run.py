#!/usr/bin/env python3
"""Host-time benchmark of the TaskStream reproduction.

Usage::

    python3 hostbench/run.py --workload suite-cold --seed 1 --seconds 35 \\
        --trace 0

Runs one named workload (``suite-cold``, ``config-grid`` or
``serve-overlap``) for ``--seconds``, checks every result, prints a table
of metrics with their units, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the first
third untraced and the rest with the host-time ledger installed, and
reports the per-layer metrics plus the tracing overhead. The traced run
also writes its spans as a Chrome trace under ``.hostbench-out/``.
Everything the benchmark writes stays under ``.hostbench-out/`` in the
checkout. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".hostbench-out"

#: Spawns of the set-up probe per library run (the median is reported).
SETUP_PROBES = 5
#: Server starts per serve run; the last one serves the run.
SERVER_STARTS = 5
#: Share of a traced run measured before the ledger is installed.
UNTRACED_SHARE = 1 / 3
#: serve-overlap jobs per tenant covered by the result digest.
SERVE_DIGEST_JOBS = 20


@dataclass
class Outcome:
    """Everything one measured phase produced."""

    point_s: list = field(default_factory=list)  # request -> delivery
    first_s: list = field(default_factory=list)  # per job
    done_s: list = field(default_factory=list)  # per completed job
    #: configuration (workload, lanes[, policy]) -> static/Delta speed-ups
    speedups: dict = field(default_factory=dict)
    digest_rows: list = field(default_factory=list)
    digest_scope: str = ""
    attempted: int = 0
    failed: int = 0
    delivered: int = 0
    window_s: float = 0.0
    #: Machine-speed scale for this phase's times (see benchdefs).
    scale: float = 1.0
    events: int = 0
    peak_rss_kb: int = 0
    spans: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def points_per_s(self) -> float:
        return self.delivered / self.window_s if self.window_s > 0 else 0.0


def _sane(delta_cycles: float, static_cycles: float) -> bool:
    return 0 < delta_cycles < float("inf") and 0 < static_cycles < float("inf")


# -- library workloads -------------------------------------------------------

def drive_library(name: str, seed: int, seconds: float, led) -> Outcome:
    """Run suite-cold or config-grid jobs until ``seconds`` have passed."""
    import benchdefs
    import ledger
    import libload

    generate, run_job = libload.WORKLOADS[name]
    retries = libload.Retries()
    out = Outcome(digest_scope="first batch")
    events_before = led.events()
    spans_before = len(led.spans)
    speed = benchdefs.Speedometer()
    speed.sample()
    deadline = time.perf_counter() + seconds
    for batch_index, batch in enumerate(generate(seed)):
        if time.perf_counter() >= deadline:
            break
        for job in batch:
            if time.perf_counter() >= deadline:
                break
            run_job(job, retries)
            out.window_s += job.end - job.start
            out.attempted += len(job.points)
            out.failed += job.failed
            delivered = sorted(job.delivered, key=lambda entry: entry[0])
            for _index, latency, comparison in delivered:
                if not _sane(comparison.delta.cycles, comparison.static.cycles):
                    out.failed += 1
                    continue
                out.delivered += 1
                out.point_s.append(latency)
                config = (comparison.workload, comparison.lanes,
                          comparison.delta.config.dispatch.policy)
                out.speedups.setdefault(config, []).append(comparison.speedup)
                if batch_index == 0:
                    out.digest_rows.append(benchdefs.point_row(comparison))
            if delivered:
                out.first_s.append(min(entry[1] for entry in delivered))
            if not job.failed:
                out.done_s.append(job.end - job.start)
            ledger.wait_for_children()  # idle box while calibrating
            speed.sample()
    out.scale = speed.scale(name)
    records = ledger.collect(led.out_dir)
    out.events = led.events() - events_before + sum(
        record["events"] for record in records)
    out.peak_rss_kb = max([ledger.peak_rss_kb()]
                          + [record["peak_rss_kb"] for record in records])
    out.spans = led.spans[spans_before:] + [
        tuple(span) for record in records for span in record["spans"]]
    out.extras["reruns"] = retries.counts.get("reruns", 0)
    return out


def library_setup_s(name: str, seed: int) -> float:
    """Median seconds from spawning a process to it being ready for the
    first point (imports done, first job's inputs built)."""
    import benchdefs
    import serveload

    times = []
    speed = benchdefs.Speedometer()
    for _ in range(SETUP_PROBES):
        speed.sample()
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "libload.py"), name, str(seed)],
            cwd=ROOT, env=serveload.child_env(ROOT), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - started)
        _rest, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return statistics.median(times) * speed.scale("setup")


# -- serve-overlap -------------------------------------------------------------

def drive_serve(seed: int, seconds: float, server) -> Outcome:
    """Two closed-loop tenants against ``server``; stops it afterwards."""
    import benchdefs
    import serveload

    metronome = subprocess.Popen(
        [sys.executable, str(HERE / "benchdefs.py"), str(seconds)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        run = serveload.drive(seed, seconds, server)
    finally:
        samples, _err = metronome.communicate(timeout=seconds + 60)
    speed = benchdefs.Speedometer()
    speed.samples = json.loads(samples)
    out = Outcome(digest_scope=f"first {SERVE_DIGEST_JOBS} jobs per tenant",
                  window_s=run.window_s,
                  scale=speed.scale("serve-overlap"))
    results: dict[tuple, tuple] = {}
    computed: list[tuple] = []
    cached = 0
    for record in sorted(run.records, key=lambda r: (r.tenant, r.index)):
        out.attempted += serveload.JOB_POINTS
        good = 0
        # Cached points arrive before computed ones, so the delivery order
        # within a job depends on timing; the sweep index does not.
        for latency, event in sorted(record.points,
                                     key=lambda point: point[1]["index"]):
            if event.get("outcome") == "cancelled" or "delta_cycles" not in event:
                continue
            key = (event["workload"], event["lanes"], record.spec["seed"])
            value = (event["delta_cycles"], event["static_cycles"],
                     event["metrics"]["delta_dram_bytes"],
                     event["metrics"]["static_dram_bytes"])
            if (results.setdefault(key, value) != value
                    or not _sane(value[0], value[1])):
                continue  # a repeat disagreed, or nonsense cycles: failed
            good += 1
            out.point_s.append(latency)
            out.speedups.setdefault(key[:2], []).append(value[1] / value[0])
            if event["outcome"] == "cached":
                cached += 1
            elif event["outcome"] != "coalesced":
                computed.append(key)
            if record.index < SERVE_DIGEST_JOBS:
                out.digest_rows.append([record.tenant, *key, *value])
        out.delivered += good
        out.failed += serveload.JOB_POINTS - good
        if record.first_s is not None:
            out.first_s.append(record.first_s)
        if record.state == "completed" and good == serveload.JOB_POINTS:
            out.done_s.append(record.done_s)
    server_record = run.server or {}
    out.events = server_record.get("events", 0)
    out.peak_rss_kb = server_record.get("peak_rss_kb", 0)
    out.spans = [tuple(span) for span in server_record.get("spans", [])]
    health = run.healthz
    serve = health.get("serve", {})
    out.extras.update({
        "post_s": [record.post_s for record in run.records],
        "cached": cached,
        "computed": len(computed),
        "useful": len(set(computed)) / len(computed) if computed else 0.0,
        "health_points": serve.get("points", 0),
        "queue_wait_mean": serve.get("mean_queue_wait_s", 0.0),
        "coalesced_sweeps": serve.get("coalesced_sweeps", 0),
        "shed": serve.get("shed", 0),
        "rejected": serve.get("rejected", 0),
        "lease_expired": serve.get("lease_expired", 0),
        "hit_rate": health.get("cache", {}).get("hit_rate", 0.0),
        "reruns": sum(health.get("eval", {}).get(name, 0) for name in
                      ("retried_points", "lost_worker_points")),
    })
    if not server_record:
        out.failed += 1  # the server did not report: it did not stop cleanly
    return out


def start_server(run_dir: Path, label: str, traced: bool = False):
    import serveload

    return serveload.ServerProcess(ROOT, run_dir / f"{label}-out",
                                   run_dir / f"{label}-store", traced)


def serve_setup(run_dir: Path):
    """Median server start-up seconds (spawn -> listening, fresh store)
    over several starts; the last server stays up for the run."""
    import benchdefs

    times = []
    speed = benchdefs.Speedometer()
    server = None
    for start in range(SERVER_STARTS):
        if server is not None:
            server.stop()
        speed.sample()
        server = start_server(run_dir, f"setup{start}")
        times.append(server.setup_s)
    return statistics.median(times) * speed.scale("setup"), server


# -- reporting ---------------------------------------------------------------

def check_digest(name: str, seed: int, out: Outcome) -> tuple[str, bool]:
    """Digest this seed's result prefix and compare it with earlier runs."""
    import benchdefs

    value = benchdefs.digest(out.digest_rows)
    key = f"{name}|seed={seed}|rows={len(out.digest_rows)}"
    path = OUT / "digests.json"
    OUT.mkdir(parents=True, exist_ok=True)
    known = json.loads(path.read_text()) if path.exists() else {}
    matches = known.setdefault(key, value) == value
    if matches:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)
    return (f"digest {value} over {len(out.digest_rows)} points "
            f"({out.digest_scope}): "
            + ("consistent with earlier runs of this seed" if matches
               else f"MISMATCH, earlier runs gave {known[key]}")), matches


def end_to_end(out: Outcome, setup_s: float) -> tuple[dict, list]:
    """End-to-end metrics and a note per metric (sample counts)."""
    import benchdefs

    metrics = {"setup_s": setup_s, "points_per_s": out.points_per_s}
    notes = {"setup_s": "median of set-up repeats",
             "points_per_s": f"{out.delivered} points in {out.window_s:.2f} s"}
    for prefix, samples in (("point_s", out.point_s),
                            ("job_first_point_s", out.first_s),
                            ("job_done_s", out.done_s)):
        if not samples:
            metrics[f"{prefix}_p50"] = metrics[f"{prefix}_p90"] = 0.0
            notes[f"{prefix}_p50"] = "no samples"
            continue
        metrics[f"{prefix}_p50"] = benchdefs.percentile(samples, 50)
        notes[f"{prefix}_p50"] = f"median of {len(samples)}"
        percentile, value = benchdefs.tail(samples)
        metrics[f"{prefix}_p90"] = value
        notes[f"{prefix}_p90"] = (
            f"p90 of {len(samples)}" if percentile == 90 else
            f"UNRESOLVED: {len(samples)} samples leave <10 beyond p90; "
            f"value is the p{percentile or 50}")
    metrics["sim_events_per_s"] = (out.events / out.window_s
                                   if out.window_s else 0.0)
    notes["sim_events_per_s"] = f"{out.events} DES slots"
    metrics["verified_frac"] = ((out.attempted - out.failed) / out.attempted
                                if out.attempted else 0.0)
    notes["verified_frac"] = (f"failed_frac {out.failed}/{out.attempted} = "
                              f"{out.failed / max(1, out.attempted):.4f}")
    metrics["peak_rss_mb"] = out.peak_rss_kb / 1024
    notes["peak_rss_mb"] = "VmHWM"
    metrics["speedup_geomean"] = (benchdefs.config_geomean(out.speedups)
                                  if out.speedups else 0.0)
    notes["speedup_geomean"] = (f"static/Delta cycles over "
                                f"{len(out.speedups)} configurations")
    rescale(metrics, benchdefs.END_TO_END, out.scale, keep=("setup_s",))
    notes["points_per_s"] += f"; times x{out.scale:.3f} to reference speed"
    return metrics, notes


def rescale(metrics: dict, units: dict, scale: float, keep=()) -> None:
    """Bring measured times (unit s) and rates (1/s) to reference speed."""
    for name, unit in units.items():
        if name in keep:
            continue
        if unit == "s":
            metrics[name] *= scale
        elif unit == "1/s":
            metrics[name] /= scale


def per_layer(out: Outcome, untraced_pps: float) -> tuple[dict, dict]:
    """Per-layer metrics from a traced phase's spans and counters;
    ``untraced_pps`` is the untraced phase's rate at reference speed."""
    import benchdefs
    import ledger

    totals = ledger.SpanTotals(out.spans)
    calls, busy, self_s, extra = (totals.calls, totals.busy, totals.self_s,
                                  totals.extra)
    compares = calls["eval.compare"]
    des_s = self_s["delta.run"] + self_s["static.run"]
    gets = calls["eval.cache.get"]
    post_s = out.extras.get("post_s", [])
    m = {
        "delta.run.calls": calls["delta.run"],
        "delta.run.self_s": self_s["delta.run"],
        "static.run.calls": calls["static.run"],
        "static.run.self_s": self_s["static.run"],
        "delta.events": extra["delta.run"]["events"],
        "static.events": extra["static.run"]["events"],
        "sim.events": out.events,
        "sim.events_per_des_s": out.events / des_s if des_s else 0.0,
        "graph.recover_structure.calls": calls["graph.recover_structure"],
        "graph.recover_structure.busy_s": busy["graph.recover_structure"],
        "graph.tasks_recovered": extra["graph.recover_structure"]["tasks"],
        "sched.hints_from_factory.calls": calls["sched.hints_from_factory"],
        "sched.hints_from_factory.busy_s": busy["sched.hints_from_factory"],
        "workloads.build_program.calls": calls["workloads.build_program"],
        "workloads.build_program.busy_s": busy["workloads.build_program"],
        "workloads.check.calls": calls["workloads.check"],
        "workloads.check.busy_s": busy["workloads.check"],
        "functional.kernel_passes_per_point": (
            (calls["graph.recover_structure"] + calls["delta.run"]) / compares
            if compares else 0.0),
        "functional.checks_per_point": (calls["workloads.check"] / compares
                                        if compares else 0.0),
        "machine.build.calls": calls["machine.build"],
        "machine.build.busy_s": busy["machine.build"],
        "eval.compare.calls": compares,
        "eval.compare.self_s": self_s["eval.compare"],
        "eval.run_points.busy_s": busy["eval.run_points"],
        "eval.parallel_efficiency": totals.parallel_efficiency(),
        "eval.cache.get.calls": gets,
        "eval.cache.get.busy_s": busy["eval.cache.get"],
        "eval.cache.put.calls": calls["eval.cache.put"],
        "eval.cache.put.busy_s": busy["eval.cache.put"],
        "eval.cache.hit_ratio": (extra["eval.cache.get"]["hit"] / gets
                                 if gets else 0.0),
        "eval.retried_points": out.extras.get("reruns", 0),
        "store.read.calls": calls["store.read"],
        "store.read.busy_s": busy["store.read"],
        "store.read.bytes": extra["store.read"]["bytes"],
        "store.write.calls": calls["store.write"],
        "store.write.busy_s": busy["store.write"],
        "store.write.bytes": extra["store.write"]["bytes"],
        "serve.post_s_p50": statistics.median(post_s) if post_s else 0.0,
        "serve.queue_wait_s_mean": out.extras.get("queue_wait_mean", 0.0),
        "serve.points": out.extras.get("health_points", 0),
        "serve.cached_points": out.extras.get("cached", 0),
        "serve.computed_points": out.extras.get("computed", 0),
        "serve.coalesced_sweeps": out.extras.get("coalesced_sweeps", 0),
        "serve.useful_compute_ratio": out.extras.get("useful", 0.0),
        "serve.shed": out.extras.get("shed", 0),
        "serve.rejected": out.extras.get("rejected", 0),
        "serve.lease_expired": out.extras.get("lease_expired", 0),
        "cache.hit_rate": out.extras.get("hit_rate", 0.0),
        "trace.points_per_s": out.points_per_s,
    }
    m["trace.untraced_points_per_s"] = untraced_pps  # already scaled
    rescale(m, benchdefs.PER_LAYER, out.scale,
            keep=("trace.untraced_points_per_s",))
    m["trace.overhead_frac"] = (untraced_pps / m["trace.points_per_s"] - 1
                                if m["trace.points_per_s"] else 0.0)
    notes = {"trace.overhead_frac": "untraced / traced points_per_s - 1",
             "sim.events_per_des_s": "DES slots / (delta + static self s)"}
    return m, notes


def print_table(title: str, metrics: dict, units: dict, notes: dict) -> None:
    print(title)
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"  {name:36s} {metrics[name]:>14.6g} {unit:6s} {note}")


# -- runs ------------------------------------------------------------------------

def timed_run(name: str, seed: int, seconds: float, run_dir: Path):
    """``--trace 0``: set-up time, then the end-to-end measurement."""
    import ledger

    if name == "serve-overlap":
        setup_s, server = serve_setup(run_dir)
        out = drive_serve(seed, seconds, server)
    else:
        setup_s = library_setup_s(name, seed)
        led = ledger.Ledger(run_dir / "procs")
        led.watch_forks()
        out = drive_library(name, seed, seconds, led)
    metrics, notes = end_to_end(out, setup_s)
    return out, [out], metrics, notes


def traced_run(name: str, seed: int, seconds: float, run_dir: Path):
    """``--trace 1``: an untraced phase, then a traced one."""
    import ledger

    untraced_s = seconds * UNTRACED_SHARE
    if name == "serve-overlap":
        plain = drive_serve(seed, untraced_s, start_server(run_dir, "plain"))
        traced = drive_serve(seed, seconds - untraced_s,
                             start_server(run_dir, "traced", traced=True))
    else:
        led = ledger.Ledger(run_dir / "procs")
        led.watch_forks()
        plain = drive_library(name, seed, untraced_s, led)
        led.install()
        try:
            traced = drive_library(name, seed, seconds - untraced_s, led)
        finally:
            led.uninstall()
    trace_path = OUT / f"trace-{name}-seed{seed}.json"
    ledger.write_chrome_trace(traced.spans, trace_path)
    metrics, notes = per_layer(traced, plain.points_per_s / plain.scale)
    notes["trace.points_per_s"] = (f"{len(traced.spans)} spans, Chrome trace "
                                   f"{trace_path.relative_to(ROOT)}")
    return plain, [plain, traced], metrics, notes


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description="host-time benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"hostbench: the program's sources are missing "
              f"(no src/repro under {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"hostbench: imported repro from {repro.__file__}, not from "
              f"this checkout", file=sys.stderr)
        return 2
    import benchdefs
    import ledger

    if args.workload not in benchdefs.WORKLOADS:
        print(f"hostbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(benchdefs.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = OUT / f"run-{os.getpid()}"
    run = traced_run if args.trace else timed_run
    try:
        digest_phase, phases, metrics, notes = run(
            args.workload, args.seed, args.seconds, run_dir)
    finally:
        ledger.wait_for_children()
        shutil.rmtree(run_dir, ignore_errors=True)

    units = benchdefs.PER_LAYER if args.trace else benchdefs.END_TO_END
    print_table(f"hostbench {args.workload} seed={args.seed} "
                f"seconds={args.seconds:g} trace={args.trace} "
                f"(held-out seed {benchdefs.HELD_OUT_SEED})",
                metrics, units, notes)
    digest_note, digest_ok = check_digest(args.workload, args.seed,
                                          digest_phase)
    print(f"  {digest_note}")
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases) + (not digest_ok)
    print(f"  attempted {attempted}, failed {failed}")
    print(benchdefs.result_line(failed == 0 and attempted > 0, attempted,
                                failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
