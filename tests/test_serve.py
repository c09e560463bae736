"""The server test battery for ``repro serve``.

What must hold (see docs/serving.md):

- **protocol round-trip**: a sweep submitted over the wire streams the
  same per-point numbers a direct in-process ``compare()`` produces,
  field for field;
- **cancellation**: DELETE on a running job propagates into the in-flight
  evaluation points and leaves the queue and pool clean — conservation
  still balances and the server keeps serving;
- **quotas**: a tenant at its active-job quota gets a typed 429; other
  tenants are unaffected;
- **restart recovery**: queued jobs persisted in the ``jobs`` store
  namespace are replayed by a fresh server;
- **point-level coalescing**: a point in flight in one job — of any
  tenant — is computed once and streamed to every other job that asks
  for it, whether the sweeps are identical or only overlap;
- **overload control**: past the global or per-tenant queue-depth cap,
  submissions shed with a typed 503 carrying ``Retry-After``; the books
  still balance;
- **jobs CLI**: ``repro jobs list|gc`` reads the persisted ``jobs``
  namespace directly, with live records shielded from GC;
- **conservation**: random submit/claim/cancel/finish interleavings never
  violate ``submitted == queued + running + completed + cancelled +
  failed + rejected`` (Hypothesis property; the chaos variant with
  lease expiry lives in ``tests/test_chaos.py``).

Every server here binds port 0 on localhost and runs in a background
thread; clients are plain ``http.client`` over the NDJSON protocol.
"""

import asyncio
import http.client
import json
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.config import default_delta_config
from repro.eval.parallel import run_suite_parallel
from repro.serve import JobQueue, JobSpec, QuotaExceeded, Server
from repro.serve.http import read_request
from repro.serve.protocol import MAX_LANES, ServeError, parse_job_spec
from repro.serve.queue import CANCELLED, COMPLETED, FAILED, RUNNING
from repro.workloads import get_workload

LANES = 4
#: Fast registered workloads (fractions of a second per point).
NAMES = ["micro-chain", "micro-skewed"]


# -- harness ----------------------------------------------------------------

@contextmanager
def serving(tmp_path, **kwargs):
    """A live server on a fresh store, torn down gracefully."""
    server = Server(port=0, root=tmp_path / "store", **kwargs)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.ready.wait(10), "server did not come up"
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(10)
        assert not thread.is_alive(), "server did not shut down"


def request(port, method, path, body=None, timeout=120):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    return response.status, (json.loads(data) if data else None)


def stream(port, job_id, timeout=120):
    """Consume a job's whole NDJSON event stream (ends at socket close)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        events = [json.loads(line)
                  for line in response.read().decode().splitlines()]
    finally:
        conn.close()
    return events


def request_full(port, method, path, body=None, timeout=120):
    """Like :func:`request`, but also returns the response headers."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        data = response.read()
        headers = dict(response.getheaders())
    finally:
        conn.close()
    return response.status, headers, (json.loads(data) if data else None)


def submit(port, spec):
    status, body = request(port, "POST", "/jobs", body=spec)
    assert status == 201, body
    return body["job"]


def sweep_spec(**overrides):
    spec = {"kind": "sweep", "workloads": NAMES, "lanes": LANES,
            "sanitize": True}
    spec.update(overrides)
    return spec


def wait_for_state(port, job_id, states, timeout=30):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, body = request(port, "GET", f"/jobs/{job_id}")
        if body["state"] in states:
            return body
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached {states}")


def slow_points(monkeypatch, delay_s):
    """Make every evaluation point take ``delay_s`` extra seconds.

    The server under test runs in this process, so patching the point
    function is enough to hold a job in flight long enough to race it.
    """
    from repro.eval import parallel as parallel_mod

    real = parallel_mod._compare_point

    def slowed(spec):
        time.sleep(delay_s)
        return real(spec)

    monkeypatch.setattr(parallel_mod, "_compare_point", slowed)


# -- the battery ------------------------------------------------------------

class TestProtocolRoundTrip:
    def test_submitted_sweep_matches_direct_compare(self, tmp_path):
        config = default_delta_config(lanes=LANES, seed=0)
        config = config.with_policy("work-aware")
        expected = run_suite_parallel(
            lanes=LANES, workloads=[get_workload(n) for n in NAMES],
            jobs=1, delta_config=config, sanitize=True)
        with serving(tmp_path) as server:
            job_id = submit(server.port, sweep_spec())
            events = stream(server.port, job_id)

            kinds = [e["event"] for e in events]
            assert kinds[0] == "queued" and kinds[1] == "started"
            assert events[-1] == {"event": "done", "job": job_id,
                                  "state": "completed"}
            points = {e["index"]: e for e in events
                      if e["event"] == "point"}
            assert sorted(points) == list(range(len(NAMES)))
            for index, comparison in enumerate(expected):
                event = points[index]
                assert event["outcome"] == "ok"
                assert event["workload"] == comparison.workload
                assert event["delta_cycles"] == comparison.delta.cycles
                assert event["static_cycles"] == comparison.static.cycles
                assert event["speedup"] == comparison.speedup
                assert event["traffic_ratio"] == comparison.traffic_ratio
                assert event["lanes"] == comparison.lanes
                metrics = event["metrics"]
                assert metrics["delta_dram_bytes"] == \
                    comparison.delta.dram_bytes
                assert metrics["static_dram_bytes"] == \
                    comparison.static.dram_bytes
                assert metrics["delta_noc_bytes"] == \
                    comparison.delta.noc_bytes
                assert metrics["static_noc_bytes"] == \
                    comparison.static.noc_bytes
                assert metrics["tasks_executed"] == \
                    comparison.delta.tasks_executed

            # Warm repeat: same spec, zero simulations, same numbers.
            repeat_id = submit(server.port, sweep_spec())
            repeat = [e for e in stream(server.port, repeat_id)
                      if e["event"] == "point"]
            assert [e["outcome"] for e in repeat] == \
                ["cached"] * len(NAMES)
            for fresh, cached in zip(sorted(points.values(),
                                            key=lambda e: e["index"]),
                                     sorted(repeat,
                                            key=lambda e: e["index"])):
                assert cached["delta_cycles"] == fresh["delta_cycles"]
                assert cached["speedup"] == fresh["speedup"]

            health = request(server.port, "GET", "/healthz")[1]
            assert health["cache"]["hits"] >= len(NAMES)
            assert health["cache"]["hit_rate"] > 0
            assert health["conservation_ok"] is True
            assert health["queue"]["completed"] == 2

    def test_typed_errors_over_the_wire(self, tmp_path):
        with serving(tmp_path) as server:
            port = server.port
            cases = [
                ({"kind": "sweep", "workloads": ["no-such-workload"]},
                 400, "bad-spec"),
                ({"kind": "sweep", "workloads": NAMES, "polcy": "x"},
                 400, "bad-spec"),
                ({"kind": "sweep", "workloads": NAMES,
                  "policy": "no-such-policy"}, 400, "unknown-policy"),
                ({"kind": "compare", "workloads": NAMES}, 400, "bad-spec"),
                ({"kind": "sweep", "workloads": NAMES,
                  "lanes": MAX_LANES + 1}, 400, "bad-spec"),
            ]
            for spec, want_status, want_code in cases:
                status, body = request(port, "POST", "/jobs", body=spec)
                assert status == want_status, body
                assert body["error"]["code"] == want_code
            status, body = request(port, "GET", "/jobs/doesnotexist")
            assert (status, body["error"]["code"]) == (404, "unknown-job")
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("POST", "/jobs", body=b"{not json")
            response = conn.getresponse()
            body = json.loads(response.read())
            conn.close()
            assert response.status == 400
            assert body["error"]["code"] == "bad-json"
            # None of those rejections may unbalance the books.
            health = request(port, "GET", "/healthz")[1]
            assert health["conservation_ok"] is True


class TestQuotas:
    def test_tenant_at_quota_gets_typed_429(self, tmp_path):
        with serving(tmp_path, start_paused=True,
                     max_active_per_tenant=2) as server:
            port = server.port
            submit(port, sweep_spec(tenant="greedy"))
            submit(port, sweep_spec(tenant="greedy", seed=1))
            status, body = request(port, "POST", "/jobs",
                                   body=sweep_spec(tenant="greedy",
                                                   seed=2))
            assert status == 429
            assert body["error"]["code"] == "quota-exceeded"
            # The quota is per tenant: another tenant still gets in.
            submit(port, sweep_spec(tenant="patient"))
            health = request(port, "GET", "/healthz")[1]
            assert health["queue"]["rejected"] == 1
            assert health["queue"]["queued"] == 3
            assert health["tenants"]["greedy"]["active"] == 2
            assert health["conservation_ok"] is True


class TestOverloadShedding:
    def test_global_queue_cap_sheds_typed_503(self, tmp_path):
        with serving(tmp_path, start_paused=True, max_queued=2) as server:
            port = server.port
            submit(port, sweep_spec(seed=1))
            submit(port, sweep_spec(seed=2))
            status, headers, body = request_full(
                port, "POST", "/jobs", body=sweep_spec(seed=3))
            assert status == 503
            assert body["error"]["code"] == "overloaded"
            # Retry-After is advisory load-shedding contract: header and
            # body must agree and be a positive whole number of seconds.
            retry_after = int(headers["Retry-After"])
            assert retry_after >= 1
            assert body["error"]["retry_after_s"] == retry_after

            health = request(port, "GET", "/healthz")[1]
            assert health["queue"]["rejected"] == 1
            assert health["serve"]["shed"] == 1
            assert health["queue"]["queued"] == 2
            assert health["conservation_ok"] is True
            assert health["overload"]["max_queued"] == 2

    def test_backlog_cap_is_per_tenant(self, tmp_path):
        with serving(tmp_path, start_paused=True,
                     max_backlog_per_tenant=1) as server:
            port = server.port
            submit(port, sweep_spec(tenant="noisy"))
            status, _headers, body = request_full(
                port, "POST", "/jobs",
                body=sweep_spec(tenant="noisy", seed=1))
            assert status == 503
            assert body["error"]["code"] == "overloaded"
            # Another tenant is unaffected by the noisy one's backlog.
            submit(port, sweep_spec(tenant="quiet"))
            health = request(port, "GET", "/healthz")[1]
            assert health["queue"]["queued"] == 2
            assert health["queue"]["rejected"] == 1
            assert health["conservation_ok"] is True


class TestJobsCli:
    """``repro jobs`` inspects/GCs the jobs namespace with no server."""

    def _seeded_store(self, tmp_path):
        from repro.store import open_store

        store = open_store(tmp_path / "store")
        queue = JobQueue(store=store)
        live = queue.submit(_spec(0))
        done = queue.submit(_spec(1))
        claimed = queue.claim_next()
        assert claimed.id == live.id or claimed.id == done.id
        # Retire one job; keep the other live (queued or running).
        other = live.id if claimed.id == done.id else done.id
        queue.finish(claimed.id, COMPLETED, owner=claimed.owner)
        return store, claimed.id, other

    def test_list_shows_every_record(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        store, finished, live = self._seeded_store(tmp_path)
        assert cli_main(["jobs", "list",
                         "--cache-dir", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert finished in out and live in out
        assert "completed" in out

    def test_gc_prunes_terminal_but_shields_live(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        store, finished, live = self._seeded_store(tmp_path)
        assert cli_main(["jobs", "gc", "--older-than", "0",
                         "--cache-dir", str(tmp_path / "store")]) == 0
        assert cli_main(["jobs", "list",
                         "--cache-dir", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert live in out
        assert finished not in out


class TestCancellation:
    def test_cancel_queued_job_is_immediate(self, tmp_path):
        with serving(tmp_path, start_paused=True) as server:
            job_id = submit(server.port, sweep_spec())
            status, body = request(server.port, "DELETE",
                                   f"/jobs/{job_id}")
            assert status == 202
            assert body["state"] == "cancelled"
            events = stream(server.port, job_id)
            assert events[-1]["state"] == "cancelled"
            health = request(server.port, "GET", "/healthz")[1]
            assert health["queue"]["cancelled"] == 1
            assert health["conservation_ok"] is True

    def test_mid_flight_cancel_leaves_queue_and_pool_clean(self, tmp_path,
                                                           monkeypatch):
        slow_points(monkeypatch, delay_s=0.3)
        with serving(tmp_path, max_concurrent_jobs=1) as server:
            port = server.port
            job_id = submit(port, sweep_spec(
                workloads=NAMES + ["micro-shared"]))
            wait_for_state(port, job_id, {"running"})
            status, body = request(port, "DELETE", f"/jobs/{job_id}")
            assert status == 202 and body["cancel_requested"] is True
            events = stream(port, job_id)
            assert events[-1]["state"] == "cancelled"
            # Points never computed report "cancelled" with no numbers.
            cancelled = [e for e in events if e["event"] == "point"
                         and e["outcome"] == "cancelled"]
            assert cancelled, "no point observed the cancellation"
            assert all("delta_cycles" not in e for e in cancelled)

            health = request(port, "GET", "/healthz")[1]
            assert health["queue"]["running"] == 0
            assert health["queue"]["queued"] == 0
            assert health["queue"]["cancelled"] == 1
            assert health["conservation_ok"] is True
            assert health["inflight_points"] == 0

            # The pool is clean: the next job runs to completion.
            follow_up = submit(port, sweep_spec(seed=7))
            assert stream(port, follow_up)[-1]["state"] == "completed"
            assert request(port, "GET", "/healthz")[1]["conservation_ok"] \
                is True


class TestRestartRecovery:
    def test_queued_jobs_survive_a_restart(self, tmp_path):
        with serving(tmp_path, start_paused=True) as server:
            first = submit(server.port, sweep_spec())
            second = submit(server.port, sweep_spec(seed=1,
                                                    tenant="other"))
            assert request(server.port, "GET",
                           "/healthz")[1]["queue"]["queued"] == 2
        # Same store root, fresh process state: recovery must replay both.
        with serving(tmp_path) as reborn:
            for job_id in (first, second):
                events = stream(reborn.port, job_id)
                assert events[-1]["state"] == "completed"
                assert any(e["event"] == "requeued" for e in events)
            health = request(reborn.port, "GET", "/healthz")[1]
            assert health["queue"]["replayed"] == 2
            assert health["queue"]["completed"] == 2
            assert health["serve"]["replayed"] == 2
            assert health["conservation_ok"] is True

    def test_terminal_jobs_stay_streamable_after_restart(self, tmp_path):
        with serving(tmp_path) as server:
            job_id = submit(server.port, sweep_spec())
            done = stream(server.port, job_id)
            assert done[-1]["state"] == "completed"
        with serving(tmp_path) as reborn:
            replay = stream(reborn.port, job_id)
            assert replay == done
            # History replays do not re-enter the live accounting.
            health = request(reborn.port, "GET", "/healthz")[1]
            assert health["queue"]["submitted"] == 0
            assert health["conservation_ok"] is True


class TestMultiClientSoak:
    def test_duplicate_sweeps_from_four_tenants_compute_once(
            self, tmp_path, monkeypatch):
        slow_points(monkeypatch, delay_s=0.5)
        clients = 4
        with serving(tmp_path, max_concurrent_jobs=clients) as server:
            port = server.port
            results: dict = {}

            def client(tenant: str) -> None:
                # Identical sweep from every tenant: the point key has no
                # tenant in it, so every point must compute once.
                job_id = submit(port, sweep_spec(tenant=tenant))
                results[tenant] = stream(port, job_id)

            threads = [threading.Thread(target=client, args=(f"t{i}",))
                       for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert len(results) == clients

            computed = 0
            for events in results.values():
                assert events[-1]["state"] == "completed"
                points = [e for e in events if e["event"] == "point"]
                assert len(points) == len(NAMES)
                outcomes = {e["outcome"] for e in points}
                assert outcomes <= {"ok", "coalesced", "cached"}
                if "ok" in outcomes:
                    computed += sum(1 for e in points
                                    if e["outcome"] == "ok")
            # Exactly one compute per distinct point key; every other
            # client shared it in flight or read it from the cache.
            assert computed == len(NAMES)

            health = request(port, "GET", "/healthz")[1]
            assert health["cache"]["coalesced"] >= clients - 1
            assert health["queue"]["completed"] == clients
            assert health["conservation_ok"] is True

    def test_overlapping_sweeps_compute_shared_points_once(
            self, tmp_path, monkeypatch):
        """Two tenants' sweeps share two of three points: each shared
        point computes once, so 4 distinct keys cost 4 computes, not 6."""
        slow_points(monkeypatch, delay_s=0.5)
        shared = NAMES
        sweeps = {"t0": shared + ["micro-shared"],
                  "t1": shared + ["micro-uniform"]}
        with serving(tmp_path, max_concurrent_jobs=2) as server:
            port = server.port
            jobs = {tenant: submit(port, sweep_spec(tenant=tenant,
                                                    workloads=names))
                    for tenant, names in sweeps.items()}
            streams = {tenant: stream(port, job_id)
                       for tenant, job_id in jobs.items()}

            computed = 0
            numbers: dict = {}
            for tenant, events in streams.items():
                assert events[-1]["state"] == "completed"
                points = [e for e in events if e["event"] == "point"]
                assert sorted(e["index"] for e in points) == [0, 1, 2]
                computed += sum(1 for e in points if e["outcome"] == "ok")
                for event in points:
                    assert "delta_cycles" in event, event
                    cycles = numbers.setdefault(event["workload"],
                                                event["delta_cycles"])
                    assert cycles == event["delta_cycles"]
            assert computed == 4, "a shared point was computed twice"
            health = request(port, "GET", "/healthz")[1]
            assert health["inflight_points"] == 0
            assert health["conservation_ok"] is True


# -- the job-queue state machine under Hypothesis ---------------------------

def _spec(tenant: int) -> JobSpec:
    return JobSpec(kind="sweep", workloads=("micro-chain",),
                   tenant=f"t{tenant}")


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7),
                          st.integers(0, 3)),
                min_size=1, max_size=100))
def test_random_interleavings_conserve_jobs(steps):
    """submit/claim/cancel/finish in any order never unbalance
    ``submitted == queued + running + completed + cancelled + failed +
    rejected`` (the queue also asserts this internally on every
    transition — a violation fails loudly, not just here)."""
    queue = JobQueue(store=None, max_active_per_tenant=3)
    running: list = []
    for op, selector, tenant in steps:
        if op == 0:  # submit (may hit the quota)
            try:
                queue.submit(_spec(tenant))
            except QuotaExceeded:
                pass
        elif op == 1:  # claim
            job = queue.claim_next()
            if job is not None:
                running.append(job.id)
        elif op == 2:  # cancel any known job (idempotent on terminal)
            jobs = queue.jobs()
            if jobs:
                queue.request_cancel(jobs[selector % len(jobs)].id)
        else:  # finish one running job, honouring cancel requests
            if running:
                job_id = running.pop(selector % len(running))
                job = queue.get(job_id)
                if job.state == RUNNING:
                    if job.cancel_requested:
                        state = CANCELLED
                    else:
                        state = COMPLETED if selector % 2 else FAILED
                    queue.finish(job_id, state)
        assert queue.conservation_ok(), queue.counts()
    counts = queue.counts()
    assert counts["submitted"] == sum(
        counts[k] for k in ("queued", "running", "completed", "cancelled",
                            "failed", "rejected"))


class TestSpecParsing:
    def test_compare_kind_is_one_workload(self):
        spec = parse_job_spec({"kind": "compare", "workload": NAMES[0]})
        assert spec.workloads == (NAMES[0],)

    def test_bool_is_not_an_int(self):
        from repro.serve.protocol import SpecError

        with pytest.raises(SpecError):
            parse_job_spec(sweep_spec(lanes=True))

    def test_lanes_bounded_by_max_lanes(self):
        from repro.serve.protocol import SpecError

        assert parse_job_spec(sweep_spec(lanes=MAX_LANES)).lanes == MAX_LANES
        for lanes in (MAX_LANES + 1, 1_000_000):
            with pytest.raises(SpecError, match="at most") as excinfo:
                parse_job_spec(sweep_spec(lanes=lanes))
            assert (excinfo.value.status, excinfo.value.code) == \
                (400, "bad-spec")


# -- the wire front-end under byte-level fuzzing ----------------------------

def _front_end(raw: bytes):
    """What ``POST /jobs`` does with ``raw`` before touching the queue:
    parse the HTTP request, decode its JSON body, validate the spec."""
    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    request = asyncio.run(read())
    return None if request is None else parse_job_spec(request.json())


def _post(body: bytes, length=None) -> bytes:
    length = len(body) if length is None else length
    return (b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + str(length).encode() + b"\r\n\r\n" + body)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12) | st.sampled_from(NAMES + ["work-aware"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
_SPEC_FIELDS = ["kind", "workload", "workloads", "lanes", "policy", "seed",
                "verify", "sanitize", "tenant", "priority"]
_SPECS = st.dictionaries(st.sampled_from(_SPEC_FIELDS), _JSON, max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=120).map(_post),
    st.tuples(st.binary(max_size=40), st.integers(-5, 1 << 21)).map(
        lambda case: _post(*case)),
    st.one_of(_JSON, _SPECS).map(
        lambda value: _post(json.dumps(value).encode())),
))
# Regression: a deeply nested JSON body overflowed the decoder's
# recursion limit and escaped as an untyped RecursionError (HTTP 500).
@example(_post(b"[" * 100_000))
@example(_post(b'{"workloads": ' + b"[" * 50_000 + b"]" * 50_000 + b"}"))
# An oversized lane count must not become a job that pins a worker.
@example(_post(json.dumps({"workloads": NAMES,
                           "lanes": 1_000_000}).encode()))
def test_front_end_bytes_end_typed(raw):
    """Any byte string ends as a typed 4xx :class:`ServeError`, a clean
    close (``None``), or a valid :class:`JobSpec` — never an untyped
    exception the server would have to answer with a 500."""
    try:
        spec = _front_end(raw)
    except ServeError as exc:
        assert 400 <= exc.status < 500, exc
        return
    if spec is not None:
        assert isinstance(spec, JobSpec)
        assert spec.workloads and 0 < spec.lanes <= MAX_LANES
