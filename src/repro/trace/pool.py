"""Trace lookahead: synthesise traces before the caller asks for them.

Each trace draws from its own random stream, derived only from
``(function, input, seed, root seed)``, so traces are independent of
one another and of the order they are built in.  Most of a trace's
synthesis time is numpy's array ``binomial`` loop, which runs with the
GIL released, so traces a caller will ask for next can be built on
worker threads while the caller works — bit-identical to building them
one by one.

Three call sites know their next keys before they need them:

* a cohort (``ServerlessSystem.invoke_batch``, ``Scheduler.run_mixed``)
  knows every seed up front (:meth:`FunctionModel.prefetch`);
* the profiling loop of :class:`~repro.baselines.TossSystem` invokes its
  controller with the profiling inputs in turn under seeds
  ``next_seed, next_seed + 1, ...``;
* :meth:`~repro.platform.server.ServerlessPlatform.serve` has the whole
  sorted request list, and a deployment's next request runs under its
  controller's ``next_seed``.

Each holds a :class:`Lookahead` (:func:`lookahead`) and tells it the keys
it expects next, the nearest first.  The lookahead submits every key
that is neither cached nor in flight (on the serial paths, only traces
of at least :data:`SERIAL_MIN_DRAWS`), drops any key it submitted earlier
that is no longer expected (a wrong guess: a shed request, a retry, a
re-profiling cycle), and drops all of its unclaimed keys on exit, even
when the block raises.

:class:`SynthesisPool` only holds *in-flight* work: futures keyed like
the trace cache.  It never touches the cache.  Its workers take the
*newest* submission first, while the consumer
(:meth:`repro.functions.base.FunctionModel.trace`) asks for the oldest:
on a cache miss it claims the key's future, runs the synthesis inline if
no worker has started it, otherwise waits for the worker, and inserts
the result into the cache on its own thread.  So the caller synthesises
the near keys itself instead of blocking on a worker, the workers run
ahead on the far ones, and cache insertion order, LRU order, evictions
and hit/miss counters are exactly those of the sequential loop.

The shared pool has one worker per CPU this process may run on, minus
the caller's own, and starts its threads on the first submission.  On a
single CPU it has no workers and every lookahead is a no-op.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Iterator

from . import cache as trace_cache

if TYPE_CHECKING:  # imported on first submit: most runs never start a pool
    from concurrent.futures import Future, ThreadPoolExecutor

__all__ = [
    "LOOKAHEAD_DEPTH",
    "SERIAL_MIN_DRAWS",
    "Lookahead",
    "SynthesisPool",
    "lookahead",
    "shared_synthesis_pool",
]

LOOKAHEAD_DEPTH = 6
"""How many keys past the current one a serial caller expects.

Measured on a 2-vCPU host: deep enough that the worker stays ahead of
``serve_ntier``'s stream, shallow enough that few wrong guesses are
built."""

SERIAL_MIN_DRAWS = 100_000
"""The smallest trace, in :meth:`FunctionModel.split_draws`, a serial
caller hands to a worker (about 10 ms of synthesis).

Handing smaller traces to a worker made the serial paths slower, not
faster: profiling pyaes and json_load_dump took 20-30% longer on a
2-vCPU host.  Such a synthesis is mostly interpreter time, which a
worker can only take in turns with the caller under the GIL.  A cohort,
whose caller does nothing but synthesise, still gains from them."""


class SynthesisPool:
    """In-flight trace syntheses, one future per cache key, newest first."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._executor: ThreadPoolExecutor | None = None
        self._inflight: dict[Hashable, Future] = {}
        self._stack: list[tuple[Future, Callable[..., Any], tuple]] = []
        self._lock = threading.Lock()
        self.submitted = 0
        self.claimed = 0
        self.dropped = 0
        """Submitted futures discarded without a claim."""

    def __len__(self) -> int:
        return len(self._inflight)

    def submit(
        self, key: Hashable, fn: Callable[..., Any], *args: Any
    ) -> Future | None:
        """Queue ``fn(*args)`` for ``key`` unless it is already in flight.

        Returns the new future, or ``None`` if nothing was submitted
        (always, without workers).
        """
        if not self.workers:
            return None
        import concurrent.futures

        with self._lock:
            if key in self._inflight:
                return None
            if self._executor is None:
                _share_malloc_arena()
                self._executor = concurrent.futures.ThreadPoolExecutor(
                    self.workers, thread_name_prefix="trace-synth"
                )
            future: Future = concurrent.futures.Future()
            self._inflight[key] = future
            self._stack.append((future, fn, args))
            self.submitted += 1
            # One executor task per submission; each runs the newest job
            # left, so the executor's FIFO queue never decides the order.
            self._executor.submit(self._run_newest)
        return future

    def _run_newest(self) -> None:
        """Run the newest queued job that is not cancelled, if any."""
        while True:
            with self._lock:
                if not self._stack:
                    return
                future, fn, args = self._stack.pop()
            if future.set_running_or_notify_cancel():
                break
        try:
            result = fn(*args)
        except BaseException as exc:  # re-raised by the claimer's result()
            future.set_exception(exc)
        else:
            future.set_result(result)

    def claim(self, key: Hashable) -> Future | None:
        """Take ``key``'s future out of the registry, if it is in flight."""
        with self._lock:
            future = self._inflight.pop(key, None)
            if future is not None:
                self.claimed += 1
        return future

    def discard(self, owned: dict[Hashable, Future]) -> None:
        """Drop each unclaimed ``key: future`` pair of ``owned``.

        A key is dropped only while ``future`` is still the one in flight
        for it.  Jobs no worker has started are cancelled; a running one
        finishes and its result, or exception, is thrown away — a trace
        nobody claimed is synthesised again inline if it is ever asked for.
        """
        with self._lock:
            dropped = []
            for key, future in owned.items():
                if self._inflight.get(key) is future:
                    del self._inflight[key]
                    dropped.append(future)
            self.dropped += len(dropped)
            if dropped:
                gone = set(dropped)
                self._stack = [job for job in self._stack if job[0] not in gone]
        for future in dropped:
            future.cancel()

    def shutdown(self) -> None:
        """Drop all in-flight work and stop the worker threads."""
        self.discard(dict(self._inflight))
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


class Lookahead:
    """The trace keys one caller expects to ask for next.

    Keys are ``(function, input_index, seed, root_seed)`` tuples — the
    trace cache's keys.  Build one with :func:`lookahead`.
    """

    def __init__(
        self,
        pool: SynthesisPool,
        cache: trace_cache.TraceCache,
        min_draws: int = 0,
    ) -> None:
        self._pool = pool
        self._cache = cache
        self._min_draws = min_draws
        self._owned: dict[Hashable, Future] = {}

    def expect(self, keys: Iterable[tuple]) -> list[tuple]:
        """Expect ``keys`` next, the nearest first; return those submitted.

        Submits every key that is neither cached, nor in flight, nor
        below the lookahead's ``min_draws``, and drops each key this
        lookahead submitted earlier that ``keys`` no longer names and
        nobody has claimed.  Without workers ``keys`` is not even
        iterated.
        """
        if not self._pool.workers:
            return []
        keys = list(keys)
        expected = set(keys)
        stale = {k: f for k, f in self._owned.items() if k not in expected}
        if stale:
            self._pool.discard(stale)
            for key in stale:
                del self._owned[key]
        submitted = []
        for key in keys:
            if key in self._owned or key in self._cache:
                continue
            function, input_index, seed, root_seed = key
            if function.split_draws(input_index) < self._min_draws:
                continue
            future = self._pool.submit(
                key, function._synthesize, function.input_spec(input_index),
                input_index, seed, root_seed,
            )
            if future is not None:
                self._owned[key] = future
                submitted.append(key)
        return submitted

    def close(self) -> None:
        """Drop every key this lookahead submitted and nobody claimed."""
        if self._owned:
            self._pool.discard(self._owned)
            self._owned = {}


@contextlib.contextmanager
def lookahead(*, min_draws: int = 0) -> Iterator[Lookahead]:
    """A :class:`Lookahead` on the shared pool, closed on exit.

    Serial callers pass ``min_draws=SERIAL_MIN_DRAWS``.
    """
    ahead = Lookahead(shared_synthesis_pool(), trace_cache.shared_trace_cache(),
                      min_draws)
    try:
        yield ahead
    finally:
        ahead.close()


_M_ARENA_MAX = -8
"""glibc's ``mallopt`` parameter number for the arena limit."""


def _share_malloc_arena() -> None:
    """Let threads started from now on allocate from the main malloc arena.

    glibc gives each new thread an arena of its own.  A worker's freed
    synthesis temporaries then stay in its arena, where the caller's
    allocations never reuse them: +20 MB of peak RSS on the four-function
    Figure 7/8 suite.  A no-op where ``mallopt`` is missing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):  # pragma: no cover - not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def _default_workers() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not on Linux
        cpus = os.cpu_count() or 1
    return max(0, cpus - 1)


_SHARED: SynthesisPool | None = None


def shared_synthesis_pool() -> SynthesisPool:
    """The process-wide pool every :class:`Lookahead` submits to."""
    global _SHARED
    if _SHARED is None:
        _SHARED = SynthesisPool(_default_workers())
    return _SHARED
