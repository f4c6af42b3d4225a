"""Tests for the byte-budget trace LRU and its synthesis integration."""

from __future__ import annotations

import gc
import types

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.trace import TraceCache, shared_trace_cache

from conftest import make_trace


def sized_trace(n_hot_pages: int):
    """A trace whose int32 columns retain ~8 bytes per hot page."""
    pages = tuple(range(n_hot_pages))
    counts = (1,) * n_hot_pages
    return make_trace(n_pages=max(n_hot_pages, 8), pages=pages, counts=counts)


_OPAQUE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.MethodType,
    types.BuiltinFunctionType,
    TraceCache,
)


def retained_nbytes(*roots) -> int:
    """Bytes of every distinct ndarray buffer reachable from ``roots``.

    Views count through their base array, once, so a view of a column is
    free and a separate copy is not.  The walk does not enter classes,
    functions or bound methods (a cache's growth listener) or caches.
    """
    seen: set[int] = set()
    buffers: dict[int, int] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj.nbytes
            continue
        stack.extend(gc.get_referents(obj))
    return sum(buffers.values())


def nbytes(trace) -> int:
    return retained_nbytes(trace)


class TestTraceCache:
    def test_miss_then_hit_counts(self):
        cache = TraceCache(1 << 20)
        trace = sized_trace(4)
        assert cache.get("k") is None
        cache.put("k", trace)
        assert cache.get("k") is trace  # same object, not a copy
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1
        assert cache.used_bytes == nbytes(trace)

    def test_byte_budget_evicts_lru(self):
        one = sized_trace(64)
        budget = nbytes(one) * 2  # room for two traces, not three
        cache = TraceCache(budget)
        cache.put("a", one)
        cache.put("b", sized_trace(64))
        cache.put("c", sized_trace(64))
        assert cache.evictions == 1
        assert cache.get("a") is None  # least recently used went first
        assert cache.get("b") is not None
        assert cache.get("c") is not None
        assert cache.used_bytes <= budget

    def test_get_refreshes_recency(self):
        one = sized_trace(64)
        cache = TraceCache(nbytes(one) * 2)
        cache.put("a", one)
        cache.put("b", sized_trace(64))
        cache.get("a")  # a is now the most recent
        cache.put("c", sized_trace(64))
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_oversized_trace_is_not_cached(self):
        big = sized_trace(1024)
        cache = TraceCache(nbytes(big) - 1)
        cache.put("small", sized_trace(8))
        cache.put("big", big)
        # Admitting it would have flushed everything for one entry.
        assert cache.get("big") is None
        assert cache.get("small") is not None
        assert cache.evictions == 0

    def test_replacing_a_key_updates_bytes(self):
        cache = TraceCache(1 << 20)
        cache.put("k", sized_trace(256))
        replacement = sized_trace(8)
        cache.put("k", replacement)
        assert len(cache) == 1
        assert cache.used_bytes == nbytes(replacement)

    def test_clear_drops_entries_keeps_counters(self):
        cache = TraceCache(1 << 20)
        cache.put("k", sized_trace(8))
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0
        assert cache.hits == 1
        assert cache.get("k") is None

    def test_zero_budget_caches_nothing(self):
        cache = TraceCache(0)
        cache.put("k", sized_trace(8))
        assert len(cache) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            TraceCache(-1)


class TestSynthesisIntegration:
    def test_repeat_synthesis_hits_and_shares_the_object(self, tiny_function):
        cache = shared_trace_cache()
        cache.clear()
        hits_before = cache.hits
        first = tiny_function.trace(2, 7)
        second = tiny_function.trace(2, 7)
        assert second is first  # one immutable object, shared
        assert cache.hits == hits_before + 1

    def test_cached_trace_equals_fresh_synthesis(self, tiny_function):
        """A cache hit must be indistinguishable from re-synthesis."""
        cache = shared_trace_cache()
        cache.clear()
        cached = tiny_function.trace(1, 3)
        cache.clear()  # force a genuine re-synthesis
        fresh = tiny_function.trace(1, 3)
        assert cached is not fresh
        assert cached.n_pages == fresh.n_pages
        assert len(cached.epochs) == len(fresh.epochs)
        for a, b in zip(cached.epochs, fresh.epochs):
            assert a.cpu_time_s == b.cpu_time_s
            assert np.array_equal(a.pages, b.pages)
            assert np.array_equal(a.counts, b.counts)

    def test_distinct_seeds_are_distinct_entries(self, tiny_function):
        cache = shared_trace_cache()
        cache.clear()
        a = tiny_function.trace(0, 1)
        b = tiny_function.trace(0, 2)
        c = tiny_function.trace(1, 1)
        assert len({id(a), id(b), id(c)}) == 3
        assert len(cache) >= 3


class TestRealBudget:
    def test_used_bytes_bounds_retained_bytes_after_a_cohort(
        self, tiny_function, monkeypatch
    ):
        """After a batch cohort, the cache charges at least what its traces
        really retain (columns plus any views built),
        and still stays within its budget."""
        from repro.baselines import ReapSystem

        cache = shared_trace_cache()
        cache.clear()
        one = tiny_function.trace(0, 0)
        cache.clear()
        # Room for about three bare traces: the cohort below must evict.
        monkeypatch.setattr(
            cache, "budget_bytes", 3 * retained_nbytes(one) + 1024
        )
        evictions = cache.evictions
        # REAP restores fault non-WS pages in through userfaultfd, so the
        # cohort runs the execution kernel's fault census.
        system = ReapSystem(tiny_function, 0)
        system.invoke_batch(0, list(range(8)))
        traces = list(cache._entries.values())
        assert traces, "the cohort left nothing cached"
        assert cache.evictions > evictions
        assert system._cohort_memo, "the cohort took the scalar engine"
        assert retained_nbytes(*traces) <= cache.used_bytes
        assert cache.used_bytes <= cache.budget_bytes
        cache.clear()

    def test_view_growth_is_charged_when_built(self):
        cache = TraceCache(1 << 20)
        trace = sized_trace(64)
        cache.put("k", trace)
        before = cache.used_bytes
        hist = trace.histogram
        assert cache.used_bytes == before + hist.nbytes == nbytes(trace)
        trace.histogram  # cached: charged once
        assert cache.used_bytes == nbytes(trace)

    def test_view_growth_past_budget_evicts(self):
        a, b = sized_trace(64), sized_trace(64)
        cache = TraceCache(nbytes(a) + nbytes(b))
        cache.put("a", a)
        cache.put("b", b)
        b.histogram  # grows b past the budget: a (LRU) must go
        assert cache.get("a") is None
        assert cache.get("b") is b
        assert cache.used_bytes == nbytes(b) <= cache.budget_bytes

    def test_evicted_trace_stops_charging(self):
        a = sized_trace(64)
        cache = TraceCache(nbytes(a))
        cache.put("a", a)
        cache.put("b", sized_trace(64))  # evicts a
        used = cache.used_bytes
        a.histogram
        assert cache.used_bytes == used

    def test_trace_under_two_keys_is_charged_per_entry(self):
        trace = sized_trace(64)
        cache = TraceCache(1 << 20)
        cache.put("a", trace)
        cache.put("b", trace)
        trace.histogram
        assert cache.used_bytes == 2 * nbytes(trace)
        cache.put("a", sized_trace(8))  # replaces one of the two entries
        assert cache.used_bytes == nbytes(trace) + nbytes(cache.get("a"))
        cache.clear()
        assert cache.used_bytes == 0
        assert not trace._listeners
