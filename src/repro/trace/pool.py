"""Worker pool that synthesises traces ahead of their consumer.

A Figure 9 cohort asks for the traces of one function and input under
a run of invocation seeds, one after another.  Each trace draws from its
own random stream, derived only from ``(function, input, seed, root
seed)``, so the traces are independent of one another and of the order
they are built in.  Most of a trace's synthesis time is numpy's array
``binomial`` loop, which runs with the GIL released, so a cohort's
traces can be built on worker threads while the caller builds others —
bit-identical to building them one by one.

:class:`SynthesisPool` only holds *in-flight* work: futures keyed like
the trace cache.  It never touches the cache.  The consumer
(:meth:`repro.functions.base.FunctionModel.trace`) claims a key's future
on a cache miss, runs the synthesis inline if no worker has started it,
and inserts the result into the cache on its own thread, so cache
insertion order, LRU order, evictions and hit/miss counters are exactly
those of the sequential loop.

The shared pool has one worker per CPU this process may run on, minus
the caller's own.  On a single CPU it has no workers and every
``submit`` is a no-op.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

if TYPE_CHECKING:  # imported on first submit: most runs never start a pool
    from concurrent.futures import Future, ThreadPoolExecutor

__all__ = ["SynthesisPool", "shared_synthesis_pool"]


class SynthesisPool:
    """In-flight trace syntheses, one future per cache key."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._executor: ThreadPoolExecutor | None = None
        self._inflight: dict[Hashable, Future] = {}
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
        """Start ``fn(*args)`` for ``key`` unless it is already in flight.

        Returns the new future, or ``None`` if nothing was submitted
        (always, without workers).
        """
        if not self.workers:
            return None
        with self._lock:
            if key in self._inflight:
                return None
            if self._executor is None:
                import concurrent.futures

                self._executor = concurrent.futures.ThreadPoolExecutor(
                    self.workers, thread_name_prefix="trace-synth"
                )
            future = self._executor.submit(fn, *args)
            self._inflight[key] = future
            self.submitted += 1
        return future

    def claim(self, key: Hashable) -> Future | None:
        """Take ``key``'s future out of the registry, if it is in flight."""
        with self._lock:
            future = self._inflight.pop(key, None)
            if future is not None:
                self.claimed += 1
        return future

    def discard(self, keys: Iterable[Hashable]) -> None:
        """Drop every unclaimed future among ``keys``.

        Futures no worker has started are cancelled; a running one
        finishes and its result, or exception, is thrown away — a trace
        nobody claimed is synthesised again inline if it is ever asked for.
        """
        with self._lock:
            popped = (self._inflight.pop(key, None) for key in keys)
            futures = [future for future in popped if future is not None]
            self.dropped += len(futures)
        for future in futures:
            future.cancel()

    def shutdown(self) -> None:
        """Drop all in-flight work and stop the worker threads."""
        self.discard(list(self._inflight))
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


def _default_workers() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not on Linux
        cpus = os.cpu_count() or 1
    return max(0, cpus - 1)


_SHARED: SynthesisPool | None = None


def shared_synthesis_pool() -> SynthesisPool:
    """The process-wide pool :meth:`FunctionModel.prefetch` submits to."""
    global _SHARED
    if _SHARED is None:
        _SHARED = SynthesisPool(_default_workers())
    return _SHARED
