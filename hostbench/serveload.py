"""The ``serve-overlap`` workload: two closed-loop tenants on ``repro serve``.

A real ``repro serve`` process (started through ``serve_main.py``) runs on
a fresh, empty store. Two client threads, one per tenant, each submit a
3-point sweep, follow its NDJSON event stream to the terminal event, and
only then submit the next one -- a closed loop, so a slow server receives
less load.

The job mix is drawn from the seed before the run starts. Some rounds give
both tenants the same sweep (byte-identical specs, so sweep coalescing can
share one computation); other sweeps reuse two points of an earlier sweep
(only the point cache helps) or repeat an earlier sweep outright; the rest
are fresh. About half of all requested points repeat an earlier request.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: Registered workloads the tenants sweep: the cheaper ones, so a point
#: that misses the cache costs tens of milliseconds and the store, queue
#: and cache paths carry a large share of the work.
SERVE_POOL = ("bfs", "ext-spgemm", "micro-chain", "micro-skewed",
              "micro-thrash", "micro-tree", "micro-uniform", "spmv",
              "triangle")
SERVE_LANES = (4, 8)
TENANTS = ("tenant-a", "tenant-b")
JOB_POINTS = 3
#: Round kinds in every block of 20 rounds, shuffled within the block:
#: both tenants submit the same new sweep (only sweep coalescing can share
#: it); the second tenant's sweep shares two points with the first one's
#: new sweep (only point-level deduplication could share them while both
#: run); or each tenant draws its own sweep.
ROUND_BLOCK = ("shared",) * 4 + ("partial",) * 3 + ("independent",) * 13
#: Per-tenant sweep kinds otherwise: fresh, overlapping an earlier sweep,
#: or an exact repeat of one.
P_FRESH, P_OVERLAP = 0.35, 0.45
#: Rounds generated up front; far more than a run can use.
MIX_ROUNDS = 3000
SEED_SPACE = 2 ** 31
#: Longest wait for the server to announce itself or to exit.
SERVER_TIMEOUT_S = 60.0


def job_mix(seed: int, rounds: int = MIX_ROUNDS) -> list[tuple[dict, dict]]:
    """``rounds`` pairs of job specs, one per tenant, drawn from ``seed``."""
    rng = random.Random(f"serve-overlap:{seed}")
    earlier: list[tuple[int, int, tuple]] = []  # (lanes, seed, workloads)

    def fresh() -> tuple[int, int, tuple]:
        return (rng.choice(SERVE_LANES), rng.randrange(SEED_SPACE),
                tuple(rng.sample(SERVE_POOL, JOB_POINTS)))

    def overlap(base: tuple[int, int, tuple]) -> tuple[int, int, tuple]:
        lanes, dispatch_seed, names = base
        kept = rng.sample(names, JOB_POINTS - 1)
        added = rng.choice([n for n in SERVE_POOL if n not in names])
        mixed = kept + [added]
        rng.shuffle(mixed)
        return lanes, dispatch_seed, tuple(mixed)

    def pick() -> tuple[int, int, tuple]:
        draw = rng.random()
        if draw < P_FRESH or not earlier:
            return fresh()
        if draw < P_FRESH + P_OVERLAP:
            return overlap(rng.choice(earlier))
        return rng.choice(earlier)

    kinds: list[str] = []
    while len(kinds) < rounds:
        block = list(ROUND_BLOCK)
        rng.shuffle(block)
        kinds.extend(block)
    mix = []
    for kind in kinds[:rounds]:
        if kind == "shared":
            shared = fresh()
            sweeps = (shared, shared)
        elif kind == "partial":
            first = fresh()
            sweeps = (first, overlap(first))
        else:
            sweeps = (pick(), pick())
        earlier.extend(sweeps)
        mix.append(tuple(
            {"kind": "sweep", "workloads": list(names), "lanes": lanes,
             "seed": dispatch_seed, "tenant": tenant}
            for tenant, (lanes, dispatch_seed, names) in zip(TENANTS, sweeps)))
    return mix


def repeat_share(mix: list[tuple[dict, dict]]) -> float:
    """Share of requested points that repeat an earlier request, taking
    the rounds in order (the two tenants run roughly in step)."""
    seen: set = set()
    repeats = total = 0
    for pair in mix:
        for spec in pair:
            for name in spec["workloads"]:
                key = (name, spec["lanes"], spec["seed"])
                repeats += key in seen
                total += 1
                seen.add(key)
    return repeats / total


# -- the server process ----------------------------------------------------

def child_env(root: Path) -> dict:
    """Environment for processes the benchmark starts: the checkout's
    sources, and no ``REPRO_*`` overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


class ServerProcess:
    """One ``repro serve`` subprocess on a fresh store under ``out_dir``."""

    def __init__(self, root: Path, out_dir: Path, store: Path,
                 traced: bool = False) -> None:
        self.out_dir = out_dir
        cmd = [sys.executable, str(root / "hostbench" / "serve_main.py"),
               "--out", str(out_dir)]
        if traced:
            cmd.append("--trace")
        cmd += ["serve", "--port", "0", "--cache-dir", str(store),
                "--jobs", "1", "--max-concurrent-jobs", "2"]
        out_dir.mkdir(parents=True, exist_ok=True)
        self._log = open(out_dir / "server.log", "ab")
        self._listening = threading.Event()
        self._lines: list[str] = []
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                                     stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._listening.wait(SERVER_TIMEOUT_S):
            self.stop()
            raise RuntimeError("repro serve did not announce itself")
        self.setup_s = self._announced - started
        match = re.search(r"listening on http://[^:]+:(\d+)", self._lines[0])
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve said {self._lines[0]!r}")
        self.port = int(match.group(1))

    def _read(self) -> None:
        for line in self.proc.stdout:
            if not self._lines:
                self._announced = time.perf_counter()
                self._lines.append(line)
                self._listening.set()
        if not self._lines:
            self._lines.append("")
            self._announced = time.perf_counter()
            self._listening.set()

    def stop(self) -> Optional[dict]:
        """SIGTERM, wait, and return the record ``serve_main`` wrote."""
        if self._log.closed:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(SERVER_TIMEOUT_S)
        self._reader.join(SERVER_TIMEOUT_S)
        self._log.close()
        path = self.out_dir / f"proc-{self.proc.pid}.json"
        if not path.exists():
            return None
        record = json.loads(path.read_text())
        path.unlink()
        return record


# -- the tenants -------------------------------------------------------------

@dataclass
class JobRecord:
    """What one tenant saw of one job. Times are seconds after its POST."""

    tenant: str
    index: int
    spec: dict
    post_s: float = 0.0
    state: str = "not-submitted"
    points: list = field(default_factory=list)  # (seconds, point event)
    first_s: Optional[float] = None
    done_s: Optional[float] = None


def _request(port: int, method: str, path: str, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=SERVER_TIMEOUT_S)
    try:
        conn.request(method, path,
                     body=None if body is None else json.dumps(body))
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    return response.status, (json.loads(data) if data else None)


def run_job(port: int, record: JobRecord) -> None:
    """Submit one sweep and follow its stream to the terminal event."""
    started = time.perf_counter()
    status, body = _request(port, "POST", "/jobs", record.spec)
    record.post_s = time.perf_counter() - started
    if status != 201:
        record.state = f"http-{status}"
        return
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=SERVER_TIMEOUT_S)
    try:
        conn.request("GET", f"/jobs/{body['job']}/events")
        response = conn.getresponse()
        if response.status != 200:
            record.state = f"stream-{response.status}"
            return
        record.state = "no-terminal-event"
        for raw in response:
            event = json.loads(raw)
            now = time.perf_counter() - started
            if event.get("event") == "point":
                record.points.append((now, event))
                if record.first_s is None:
                    record.first_s = now
            elif event.get("event") == "done":
                record.done_s = now
                record.state = event.get("state", "unknown")
                break
    finally:
        conn.close()


def tenant_loop(port: int, tenant: int, mix: list, deadline: float,
                records: list) -> None:
    """Closed loop: the next sweep goes out once the last one finished."""
    for index, pair in enumerate(mix):
        if time.perf_counter() >= deadline:
            return
        record = JobRecord(TENANTS[tenant], index, pair[tenant])
        try:
            run_job(port, record)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            record.state = f"error: {type(exc).__name__}: {exc}"
        records.append(record)


@dataclass
class ServeRun:
    """One closed-loop run against one server."""

    records: list
    window_s: float
    healthz: dict
    server: Optional[dict]  # serve_main's record: events, peak RSS, spans


def drive(seed: int, seconds: float, server: ServerProcess) -> ServeRun:
    """Run both tenants against ``server`` for ``seconds``, then stop it."""
    mix = job_mix(seed)
    per_tenant: list[list] = [[] for _ in TENANTS]
    healthz: dict = {}
    try:
        started = time.perf_counter()
        deadline = started + seconds
        threads = [threading.Thread(target=tenant_loop,
                                    args=(server.port, t, mix, deadline,
                                          per_tenant[t]))
                   for t in range(len(TENANTS))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = time.perf_counter() - started
        _status, healthz = _request(server.port, "GET", "/healthz")
    finally:
        record = server.stop()
    return ServeRun([r for records in per_tenant for r in records],
                    window, healthz or {}, record)
