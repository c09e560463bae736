"""Tests for the parallel executor and the on-disk result cache.

The contract under test (see docs/evaluation.md):

- the parallel path returns *field-identical* results to the serial path;
- a warm cache serves every point without running a single simulation;
- a corrupted cache entry is dropped and recomputed, never served;
- concurrent sweeps share every overlapping in-flight point through the
  process-wide single-flight, and a follower survives its leader being
  cancelled, raising, or wedging.
"""

import pickle
import threading
import time

import pytest

from repro.arch.config import default_baseline_config, default_delta_config
from repro.eval.cache import CACHE_FORMAT, EvalCache, workload_cache_key
from repro.eval.parallel import resolve_jobs, run_suite_parallel
from repro.eval.runner import run_suite, simulation_count
from repro.util.fingerprint import comparison_fingerprint, result_stats
from repro.workloads.spmv import SpmvWorkload
from repro.workloads.synthetic import SharedReadTasks, SkewedTasks

LANES = 4


def fast_workloads():
    """Fresh instances each call — kernels mutate workload programs."""
    return [SkewedTasks(num_tasks=24), SharedReadTasks(num_tasks=12)]


def assert_field_identical(left, right):
    """Every field an experiment reads must match bit-for-bit."""
    assert [c.workload for c in left] == [c.workload for c in right]
    for a, b in zip(left, right):
        assert result_stats(a.delta) == result_stats(b.delta)
        assert result_stats(a.static) == result_stats(b.static)
        assert a.speedup == b.speedup
        assert a.traffic_ratio == b.traffic_ratio
        assert comparison_fingerprint(a) == comparison_fingerprint(b)


class TestParallelExecutor:
    def test_parallel_equals_serial_field_for_field(self):
        serial = run_suite(lanes=LANES, workloads=fast_workloads(), jobs=1)
        parallel = run_suite_parallel(lanes=LANES,
                                      workloads=fast_workloads(), jobs=4)
        assert_field_identical(serial, parallel)

    def test_run_suite_delegates_jobs(self):
        serial = run_suite(lanes=LANES, workloads=fast_workloads(), jobs=1)
        parallel = run_suite(lanes=LANES, workloads=fast_workloads(), jobs=2)
        assert_field_identical(serial, parallel)

    def test_generous_timeout_completes_normally(self):
        # A budget no real point hits: the timed path must still be
        # field-identical to the serial path.
        serial = run_suite(lanes=LANES, workloads=fast_workloads(), jobs=1)
        timed = run_suite_parallel(lanes=LANES,
                                   workloads=fast_workloads(), jobs=2,
                                   timeout=600.0)
        assert_field_identical(serial, timed)

    def test_timeout_bounds_the_serial_recompute_too(self):
        # A microscopic per-point budget times out in the pool AND in the
        # bounded serial recompute: the point is genuinely over budget, so
        # the suite raises instead of hanging on an unbounded fallback.
        from repro.eval.parallel import PointTimeoutError

        with pytest.raises(PointTimeoutError, match="budget"):
            run_suite_parallel(lanes=LANES, workloads=fast_workloads(),
                               jobs=2, timeout=1e-9)

    def test_unpicklable_workload_falls_back_to_serial(self):
        workloads = fast_workloads()
        # A lambda attribute defeats pickling, so the pool path cannot
        # ship this workload; the batch must fall back to serial, and the
        # outcomes must say so — distinctly from a timeout recovery.
        workloads[0].unpicklable = lambda: None
        serial = run_suite(lanes=LANES, workloads=fast_workloads(), jobs=1)
        outcomes: list = []
        fallback = run_suite_parallel(lanes=LANES, workloads=workloads,
                                      jobs=2, outcomes=outcomes)
        assert_field_identical(serial, fallback)
        assert len(outcomes) == len(workloads)
        assert "recovered" in outcomes
        assert "recovered-after-timeout" not in outcomes

    def test_resolve_jobs_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        assert resolve_jobs(1) == 1
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert resolve_jobs(None) == 1


def _sleeping_compare(spec):
    """Stand-in point that outlives every budget (module-level so the
    fork-started pool workers resolve it by reference)."""
    time.sleep(30)


class TestCancellation:
    """Cooperative cancellation: points resolve to outcome ``"cancelled"``
    with result ``None`` — never an exception, whatever state the point
    was in (queued, in the pool, or mid serial-recompute)."""

    def test_pre_cancelled_sweep_computes_nothing(self):
        from repro.eval.runner import simulation_count

        cancel = threading.Event()
        cancel.set()
        before = simulation_count()
        outcomes: list = []
        results = run_suite_parallel(lanes=LANES,
                                     workloads=fast_workloads(), jobs=1,
                                     outcomes=outcomes, cancel=cancel)
        assert results == [None, None]
        assert outcomes == ["cancelled", "cancelled"]
        assert simulation_count() == before

    def test_cancel_mid_sweep_marks_remaining_points_cancelled(self):
        # The first settled point fires the cancel: everything after it
        # must resolve as cancelled, everything before it stays computed.
        cancel = threading.Event()
        outcomes: list = []
        settled: list = []

        def on_result(index, comparison, outcome):
            settled.append((index, outcome))
            cancel.set()

        workloads = fast_workloads() + [SpmvWorkload()]
        results = run_suite_parallel(lanes=LANES, workloads=workloads,
                                     jobs=2, outcomes=outcomes,
                                     cancel=cancel, on_result=on_result)
        assert "cancelled" in outcomes
        assert len(settled) == len(workloads)
        for comparison, outcome in zip(results, outcomes):
            if outcome == "cancelled":
                assert comparison is None
            else:
                assert comparison is not None

    def test_cancelled_timeout_recovery_reports_cancelled(self, monkeypatch):
        # Regression: a point that times out in the pool AND whose serial
        # recompute is then cancelled must settle as "cancelled" — not
        # raise PointTimeoutError or a pool-teardown error at the caller.
        import multiprocessing

        from repro.eval import parallel as parallel_mod
        from repro.eval.parallel import run_points

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork workers to inherit the patched point")
        monkeypatch.setattr(parallel_mod, "_compare_point",
                            _sleeping_compare)
        cancel = threading.Event()
        timer = threading.Timer(0.45, cancel.set)
        timer.start()
        delta = default_delta_config(lanes=LANES)
        static = default_baseline_config(lanes=LANES)
        points = [(workload, delta, static, True)
                  for workload in fast_workloads()]
        outcomes: list = []
        try:
            results = run_points(points, jobs=2, timeout=0.3,
                                 outcomes=outcomes, cancel=cancel)
        finally:
            timer.cancel()
        assert results == [None, None]
        assert outcomes == ["cancelled", "cancelled"]

    def test_cancelled_pool_failure_reports_cancelled(self):
        # The other half of the regression: when the bounded recompute's
        # pool machinery fails *while the cancel event is set*,
        # cancellation must win over the secondary error.
        from repro.eval.parallel import _Cancelled, _recover_point

        delta = default_delta_config(lanes=LANES)
        static = default_baseline_config(lanes=LANES)
        spec = (SkewedTasks(num_tasks=24), delta, static, True)
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(_Cancelled):
            _recover_point(spec, timeout=600.0, cancel=cancel)


class _Sweep(threading.Thread):
    """Runs one ``jobs=1`` sweep in a thread; ``following`` fires once it
    waits on another caller's point (with nothing to compute in the
    pool, the heartbeat only ticks while it awaits)."""

    def __init__(self, workloads, **kwargs):
        super().__init__(daemon=True)
        self.workloads = workloads
        self.kwargs = kwargs
        self.following = threading.Event()
        self.outcomes: list = []
        self.results = None
        self.error = None

    def run(self):
        try:
            self.results = run_suite_parallel(
                lanes=LANES, workloads=self.workloads, jobs=1,
                outcomes=self.outcomes, heartbeat=self.following.set,
                **self.kwargs)
        except Exception as exc:  # noqa: BLE001 - asserted by the test
            self.error = exc


def _wait_for(condition, timeout=10):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _join(*threads, timeout=60):
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), f"{thread.name} never finished"


def _gate_points(monkeypatch, gate, started, first_only=False,
                 error=None):
    """Patch the in-process point so it blocks on ``gate`` (setting
    ``started`` on entry), then raises ``error`` or computes for real."""
    from repro.eval import parallel as parallel_mod

    real = parallel_mod._compare_point
    calls: list = []

    def gated(spec):
        calls.append(spec)
        if not first_only or len(calls) == 1:
            started.set()
            gate.wait(30)
            if error is not None:
                raise error
        return real(spec)

    monkeypatch.setattr(parallel_mod, "_compare_point", gated)
    return calls


class TestPointSingleFlight:
    """The process-wide point single-flight across concurrent sweeps:
    overlapping points compute once, and a follower never depends on its
    leader's cancel event, success, or liveness."""

    def test_overlapping_sweeps_compute_shared_points_once(self,
                                                           monkeypatch):
        from repro.eval.parallel import inflight_points

        gate, started = threading.Event(), threading.Event()
        calls = _gate_points(monkeypatch, gate, started)
        leader = _Sweep(fast_workloads())
        leader.start()
        assert started.wait(10)
        follower = _Sweep(fast_workloads() + [SpmvWorkload()])
        follower.start()
        # Once the follower blocks computing the point it leads, it has
        # claimed (and so follows) the two the leader holds.
        deadline = time.monotonic() + 10
        while len(calls) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        gate.set()
        _join(leader, follower)
        assert leader.error is None and follower.error is None
        assert leader.outcomes == ["ok", "ok"]
        assert follower.outcomes == ["coalesced", "coalesced", "ok"]
        assert len(calls) == 3, "one compute per distinct key"
        assert_field_identical(leader.results, follower.results[:2])
        assert inflight_points() == 0

    def test_cancelled_leader_leaves_follower_real_results(self,
                                                           monkeypatch):
        gate, started = threading.Event(), threading.Event()
        calls = _gate_points(monkeypatch, gate, started)
        cancel = threading.Event()
        leader = _Sweep(fast_workloads(), cancel=cancel)
        leader.start()
        assert started.wait(10)
        follower = _Sweep(fast_workloads())
        follower.start()
        assert follower.following.wait(10)
        # The leader's DELETE lands mid-point: the follower stops waiting
        # on it and computes both points itself instead of inheriting the
        # cancel; the leader's in-flight point still finishes for it.
        cancel.set()
        _wait_for(lambda: len(calls) == 2)
        gate.set()
        _join(leader, follower)
        assert leader.outcomes == ["ok", "cancelled"]
        assert follower.error is None
        assert follower.outcomes == ["ok", "ok"]
        assert len(calls) == 3
        serial = run_suite(lanes=LANES, workloads=fast_workloads(), jobs=1)
        assert_field_identical(serial, follower.results)

    def test_follower_of_a_cancelled_wedged_leader_takes_over(
            self, monkeypatch):
        """``jobs=1`` and no ``timeout``: the leader computes in its own
        thread and never resolves a wedged point, so a follower relies on
        the leader's cancel event (set by the lease watchdog)."""
        gate, started = threading.Event(), threading.Event()
        calls = _gate_points(monkeypatch, gate, started, first_only=True)
        cancel = threading.Event()
        leader = _Sweep(fast_workloads()[:1], cancel=cancel)
        leader.start()
        try:
            assert started.wait(10)
            follower = _Sweep(fast_workloads()[:1])
            follower.start()
            assert follower.following.wait(10)
            cancel.set()
            _join(follower)
            assert follower.error is None
            assert follower.outcomes == ["ok"]
            assert leader.is_alive(), "the leader is still wedged"
        finally:
            gate.set()
            _join(leader)
        assert len(calls) == 2

    def test_deterministic_error_reaches_followers_without_hanging(
            self, monkeypatch):
        """The leader's point raises on every call: its follower is
        released, claims the key again and meets the same error."""
        from repro.eval.parallel import inflight_points

        gate, started = threading.Event(), threading.Event()
        _gate_points(monkeypatch, gate, started,
                     error=RuntimeError("verification failed"))
        leader = _Sweep(fast_workloads()[:1])
        leader.start()
        assert started.wait(10)
        follower = _Sweep(fast_workloads()[:1])
        follower.start()
        assert follower.following.wait(10)
        gate.set()
        _join(leader, follower, timeout=10)
        for thread in (leader, follower):
            assert isinstance(thread.error, RuntimeError)
            assert str(thread.error) == "verification failed"
        assert inflight_points() == 0

    def test_raising_leader_hands_unstarted_keys_to_followers(
            self, monkeypatch):
        """A leader's error stays its own: the shared key it never got to
        settles as not computed, and the follower computes it."""
        from repro.eval import parallel as parallel_mod
        from repro.eval.parallel import inflight_points

        real = parallel_mod._compare_point
        failing = workload_cache_key(fast_workloads()[0])
        gate, started = threading.Event(), threading.Event()

        def gated(spec):
            if workload_cache_key(spec[0]) == failing:
                started.set()
                gate.wait(30)
                raise RuntimeError("verification failed")
            return real(spec)

        monkeypatch.setattr(parallel_mod, "_compare_point", gated)
        leader = _Sweep(fast_workloads())
        leader.start()
        assert started.wait(10)
        follower = _Sweep(fast_workloads()[1:])
        follower.start()
        assert follower.following.wait(10)
        gate.set()
        _join(leader, follower)
        assert isinstance(leader.error, RuntimeError)
        assert follower.error is None
        assert follower.outcomes == ["ok"]
        serial = run_suite(lanes=LANES, workloads=fast_workloads()[1:],
                           jobs=1)
        assert_field_identical(serial, follower.results)
        assert inflight_points() == 0

    def test_follower_budget_runs_from_the_leaders_start(self,
                                                         monkeypatch):
        """With ``timeout`` set, the points queued ahead of a shared one
        in the leader's batch do not count against its follower: the
        shared point still computes once."""
        from repro.eval import parallel as parallel_mod

        real = parallel_mod._compare_point
        calls: list = []
        started = threading.Event()

        def slow(spec):
            calls.append(spec)
            started.set()
            time.sleep(0.5)
            return real(spec)

        monkeypatch.setattr(parallel_mod, "_compare_point", slow)
        workloads = fast_workloads() + [SkewedTasks(num_tasks=16)]
        leader = _Sweep(workloads, timeout=1.2)
        leader.start()
        assert started.wait(10)
        # Queued behind two 0.5 s points, the shared one starts after the
        # follower's 1.2 s would have run out had it counted from here.
        follower = _Sweep(workloads[2:], timeout=1.2)
        follower.start()
        _join(leader, follower)
        assert leader.error is None and follower.error is None
        assert follower.outcomes == ["coalesced"]
        assert len(calls) == 3, "one compute per distinct key"

    def test_follower_of_a_wedged_leader_computes_after_its_budget(
            self, monkeypatch):
        gate, started = threading.Event(), threading.Event()
        calls = _gate_points(monkeypatch, gate, started, first_only=True)
        leader = _Sweep(fast_workloads()[:1])
        # The follower's budget runs from the leader's start.
        begin = time.monotonic()
        leader.start()
        try:
            assert started.wait(10)
            follower = _Sweep(fast_workloads()[:1], timeout=0.3)
            follower.start()
            _join(follower)
            assert follower.error is None
            assert follower.outcomes == ["ok"]
            assert time.monotonic() - begin >= 0.3
            assert leader.is_alive(), "the leader is still wedged"
            serial = run_suite(lanes=LANES,
                               workloads=fast_workloads()[:1], jobs=1)
            assert_field_identical(serial, follower.results)
        finally:
            gate.set()
            _join(leader)
        # The unseated leader's late result still lands for its caller.
        assert leader.outcomes == ["ok"]
        assert len(calls) == 2


    def test_stress_each_key_computes_once(self, monkeypatch, tmp_path):
        """More sweeps than cores, overlapping at random offsets, with a
        tiny switch interval: with a cache, every distinct key computes
        exactly once whatever the interleaving — a claim that slipped
        between a leader's publish and its release would recompute."""
        import sys

        from repro.eval import parallel as parallel_mod
        from repro.eval.parallel import inflight_points

        real = parallel_mod._compare_point
        computed: list = []
        lock = threading.Lock()

        def counted(spec):
            with lock:
                computed.append(workload_cache_key(spec[0]))
            time.sleep(0.01)
            return real(spec)

        monkeypatch.setattr(parallel_mod, "_compare_point", counted)
        cache = EvalCache(tmp_path)

        def sweep(offset):
            workloads = fast_workloads() + [SkewedTasks(num_tasks=16)]
            return workloads[offset:] + workloads[:offset]

        sweeps = [_Sweep(sweep(i % 3), cache=cache) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in sweeps:
                thread.start()
            _join(*sweeps)
        finally:
            sys.setswitchinterval(interval)
        assert all(thread.error is None for thread in sweeps)
        assert sorted(computed) == sorted(set(computed)), computed
        assert len(computed) == 3
        for thread in sweeps:
            assert None not in thread.results
            assert set(thread.outcomes) <= {"ok", "coalesced", "cached"}
        assert inflight_points() == 0

class TestEvalCache:
    def test_cache_hit_skips_simulation(self, tmp_path):
        cache = EvalCache(tmp_path)
        cold = run_suite_parallel(lanes=LANES, workloads=fast_workloads(),
                                  jobs=1, cache=cache)
        assert cache.stores == len(cold)
        before = simulation_count()
        warm = run_suite_parallel(lanes=LANES, workloads=fast_workloads(),
                                  jobs=1, cache=cache)
        assert simulation_count() == before, \
            "warm cache must not run any simulation"
        assert cache.hits == len(warm)
        assert_field_identical(cold, warm)

    def test_corrupted_entry_falls_back_to_recompute(self, tmp_path):
        cache = EvalCache(tmp_path)
        cold = run_suite_parallel(lanes=LANES, workloads=fast_workloads(),
                                  jobs=1, cache=cache)
        # Entries are sharded: <root>/eval/<digest prefix>/<key>.pkl.
        for entry in tmp_path.rglob("*.pkl"):
            entry.write_bytes(b"not a pickle")
        before = simulation_count()
        recomputed = run_suite_parallel(lanes=LANES,
                                        workloads=fast_workloads(),
                                        jobs=1, cache=cache)
        assert simulation_count() == before + len(recomputed), \
            "corrupted entries must be recomputed"
        assert_field_identical(cold, recomputed)

    def test_tampered_payload_fails_fingerprint_check(self, tmp_path):
        cache = EvalCache(tmp_path)
        workload = SkewedTasks(num_tasks=24)
        delta_cfg = default_delta_config(lanes=LANES)
        static_cfg = default_baseline_config(lanes=LANES)
        key = cache.key_for(workload, delta_cfg, static_cfg)
        comparison = run_suite_parallel(lanes=LANES, workloads=[workload],
                                        jobs=1, cache=cache)[0]
        # Valid pickle, wrong contents: the stored fingerprint no longer
        # matches, so the entry must be dropped, not served.
        path = cache._path(key)
        entry = pickle.loads(path.read_bytes())
        entry["comparison"].delta.cycles += 1
        path.write_bytes(pickle.dumps(entry))
        assert cache.get(key) is None
        assert not path.exists()
        fresh = run_suite_parallel(lanes=LANES,
                                   workloads=[SkewedTasks(num_tasks=24)],
                                   jobs=1, cache=cache)[0]
        assert result_stats(fresh.delta) == result_stats(comparison.delta)

    def test_key_distinguishes_configs_and_params(self, tmp_path):
        cache = EvalCache(tmp_path)
        static = default_baseline_config(lanes=LANES)
        base = cache.key_for(SpmvWorkload(), default_delta_config(LANES),
                             static)
        other_lanes = cache.key_for(SpmvWorkload(),
                                    default_delta_config(8), static)
        other_grain = cache.key_for(SpmvWorkload(rows_per_task=2),
                                    default_delta_config(LANES), static)
        assert len({base, other_lanes, other_grain}) == 3

    def test_workload_cache_key_is_stable(self):
        assert workload_cache_key(SpmvWorkload()) == \
            workload_cache_key(SpmvWorkload())
        assert isinstance(CACHE_FORMAT, int)

    def test_clear_removes_entries(self, tmp_path):
        cache = EvalCache(tmp_path)
        run_suite_parallel(lanes=LANES, workloads=fast_workloads(), jobs=1,
                           cache=cache)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestCodeVersionInvalidation:
    """The code-version digest must cover the whole simulator — in
    particular the repro.machine composition layer — so editing any of it
    invalidates cached comparisons."""

    def test_machine_layer_is_covered_by_the_digest(self):
        from repro.eval.cache import source_files
        covered = {p.as_posix() for p in source_files()}
        for module in ("machine/machine.py", "machine/session.py",
                       "machine/metrics.py", "machine/result.py"):
            assert any(path.endswith(f"repro/{module}") for path in covered), \
                f"repro/{module} missing from code-version digest"

    def test_graph_layer_is_covered_by_the_digest(self):
        # The structure layer added after the machine layer must join the
        # same digest: editing repro/graph/ invalidates eval-cache entries.
        from repro.eval.cache import source_files
        covered = {p.as_posix() for p in source_files()}
        for module in ("graph/ir.py", "graph/analyses.py",
                       "graph/cache.py", "graph/render.py"):
            assert any(path.endswith(f"repro/{module}") for path in covered), \
                f"repro/{module} missing from code-version digest"

    def test_machine_layer_change_invalidates_digest(self, tmp_path):
        from repro.eval.cache import digest_tree
        (tmp_path / "machine").mkdir()
        source = tmp_path / "machine" / "session.py"
        source.write_text("STALL_LIMIT = 1\n")
        before = digest_tree(tmp_path)
        source.write_text("STALL_LIMIT = 2\n")
        assert digest_tree(tmp_path) != before

    def test_code_version_change_invalidates_cache_keys(self, tmp_path,
                                                        monkeypatch):
        import repro.eval.cache as cache_mod
        cache = EvalCache(tmp_path)
        workload = SpmvWorkload()
        delta_cfg = default_delta_config(LANES)
        static_cfg = default_baseline_config(lanes=LANES)
        old = cache.key_for(workload, delta_cfg, static_cfg)
        monkeypatch.setattr(cache_mod, "code_version",
                            lambda: "machine-layer-edited")
        new = cache.key_for(workload, delta_cfg, static_cfg)
        assert new != old


class TestSpeedupGuard:
    def test_zero_cycle_delta_yields_infinite_speedup(self):
        comparison = run_suite(lanes=LANES,
                               workloads=[SkewedTasks(num_tasks=24)])[0]
        comparison.delta.cycles = 0
        assert comparison.speedup == float("inf")
        assert comparison.traffic_ratio > 0
