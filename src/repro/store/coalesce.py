"""In-process request coalescing: one computation per in-flight key.

A sweep (or several ``repro serve`` jobs at once) can ask for the same
point twice while the first computation is still running. The cache only
helps once a result is *published*; the :class:`Coalescer` closes the
in-flight window: the first claimant of a key becomes the leader and
computes, every concurrent claimant of the same key holds the leader's
future and shares its result (or its exception). When the leader
finishes, the key leaves the in-flight map — completed results are the
cache's job, not this class's.

Two shapes over one map:

- :meth:`Coalescer.claim` is the non-blocking primitive: it claims a
  whole batch of keys in one lock hold and says, per key, whether the
  caller leads (and must resolve the future, then :meth:`release` it) or
  follows (and may wait on the future however it likes). This is the
  process-wide point single-flight of :mod:`repro.eval.parallel`: a
  follower waits under its own budget and cancel event, and unseats a
  leader it gave up on with :meth:`release` before claiming the key
  again;
- :meth:`Coalescer.run` is the blocking convenience built on it — the
  leader calls ``compute()``, followers block on its future (used by
  :func:`repro.graph.cache.structure_summary`).

Thread-safe; single-threaded callers pay one dict lookup. The
``coalesced`` metric means the same thing everywhere: a caller that did
not compute.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Callable, Iterable, TypeVar

from repro.store.metrics import NULL_METRICS

T = TypeVar("T")


class Coalescer:
    """Keyed single-flight execution over any callable."""

    def __init__(self, metrics=NULL_METRICS) -> None:
        self.metrics = metrics
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}

    def claim(self, keys: Iterable[str],
              make: Callable[[], Future] = Future
              ) -> list[tuple[Future, bool]]:
        """Claim ``keys`` in one lock hold; ``(future, leader)`` per key.

        A key not yet in flight gets a fresh future from ``make()`` and
        ``leader=True``: the caller must resolve it and then
        :meth:`release` it. A key already in flight — including one
        claimed earlier in the same call — returns the current leader's
        future with ``leader=False``. A :class:`Future` subclass from
        ``make`` can carry what followers need to judge their leader.
        """
        claims = []
        with self._lock:
            for key in keys:
                future = self._inflight.get(key)
                leader = future is None
                if leader:
                    future = self._inflight[key] = make()
                claims.append((future, leader))
        return claims

    def release(self, key: str, future: Future) -> None:
        """Drop ``key`` from the map if ``future`` still holds it.

        The guard means a leader's late cleanup never evicts a successor
        that claimed the key after a follower unseated it.
        """
        with self._lock:
            if self._inflight.get(key) is future:
                del self._inflight[key]

    def run(self, key: str, compute: Callable[[], T]) -> T:
        """Compute ``key`` once across concurrent callers.

        The leader runs ``compute()``; followers arriving while it runs
        count one ``coalesced`` metric each and receive the leader's
        result — or its exception, re-raised in every follower, so a
        failed computation is not silently retried by the pack.
        """
        [(future, leader)] = self.claim([key])
        if not leader:
            self.metrics.add("coalesced")
            return future.result()
        try:
            result = compute()
        except BaseException as exc:
            future.set_exception(exc)
            raise
        else:
            future.set_result(result)
            return result
        finally:
            self.release(key, future)

    def inflight(self) -> int:
        """How many keys are being computed right now."""
        with self._lock:
            return len(self._inflight)
