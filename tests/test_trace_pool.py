"""Trace lookahead: the synthesis pool, cohort prefetch and the serial
paths (the profiling loop and ``serve``).

Every test here swaps in its own :class:`SynthesisPool` (and usually a
fresh trace cache), so the pooled path is exercised with real worker
threads even on a single CPU, next to the shared pool's default size.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import threading

import numpy as np
import pytest

from repro import faults
from repro.baselines import DramBaseline, ReapSystem, TossSystem
from repro.config import DEFAULT_SEED
from repro.core.toss import Phase, TossConfig
from repro.errors import ConfigError, SchedulerError
from repro.experiments import common, fig9_scalability
from repro.faults import FaultPlan
from repro.functions import EXTENDED_SUITE, SUITE
from repro.functions.base import FunctionModel
from repro.obs import runtime as obs_runtime
from repro.platform import KeepAliveCache, ServerlessPlatform
from repro.platform.overload import OverloadConfig, RequestClass
from repro.platform.scheduler import Scheduler
from repro.trace import TraceCache
from repro.trace import cache as trace_cache
from repro.trace import pool as trace_pool
from repro.trace.events import int32_column

from conftest import make_trace


@pytest.fixture
def use_pool(monkeypatch):
    """Install a fresh shared pool with ``workers`` workers (None: default)."""
    pools: list[trace_pool.SynthesisPool] = []

    def install(workers: int | None = 2) -> trace_pool.SynthesisPool:
        if workers is None:
            workers = trace_pool._default_workers()
        pool = trace_pool.SynthesisPool(workers)
        pools.append(pool)
        monkeypatch.setattr(trace_pool, "_SHARED", pool)
        return pool

    yield install
    for pool in pools:
        pool.shutdown()


@pytest.fixture
def use_cache(monkeypatch):
    """Install a fresh shared trace cache with the given byte budget."""

    def install(budget: int = trace_cache.DEFAULT_BUDGET_BYTES) -> TraceCache:
        cache = TraceCache(budget)
        monkeypatch.setattr(trace_cache, "_SHARED", cache)
        return cache

    return install


def cache_state(cache: TraceCache) -> tuple:
    return (cache.hits, cache.misses, cache.evictions, cache.used_bytes,
            [key[1:] for key in cache._entries])


def assert_all_claimed(pool: trace_pool.SynthesisPool) -> None:
    assert pool.submitted > 0
    assert pool.claimed == pool.submitted
    assert pool.dropped == 0
    assert len(pool) == 0


def trace_digest(traces) -> str:
    h = hashlib.sha256()
    for trace in traces:
        h.update(trace.label.encode())
        for column in (trace.pages, trace.counts, trace.ptr,
                       trace.epoch_cpu_time_s, trace.epoch_random_fraction,
                       trace.epoch_store_fraction):
            h.update(column.tobytes())
    return h.hexdigest()


class _Int32Overflow(FunctionModel):
    """Synthesis of seed 7 fails the int32 page-column check."""

    def _synthesize(self, spec, input_index, invocation_seed, root_seed):
        if invocation_seed == 7:
            int32_column(np.array([2**31]), "page indices")
        return super()._synthesize(spec, input_index, invocation_seed,
                                   root_seed)


def overflowing(function: FunctionModel) -> _Int32Overflow:
    return _Int32Overflow(**{
        name: getattr(function, name)
        for name in FunctionModel.__dataclass_fields__
    })


class TestCacheMembership:
    def test_contains_touches_no_counter_or_recency(self):
        cache = TraceCache(1 << 20)
        cache.put("a", make_trace())
        cache.put("b", make_trace())
        before = (cache.hits, cache.misses, list(cache._entries))
        assert "a" in cache
        assert "z" not in cache
        assert (cache.hits, cache.misses, list(cache._entries)) == before


class TestPool:
    def test_no_workers_submits_nothing(self, use_pool, tiny_function):
        pool = use_pool(0)
        with tiny_function.prefetch(0, range(4)) as keys:
            assert keys == []
        assert pool.submitted == 0 and len(pool) == 0

    def test_prefetch_skips_cached_and_in_flight_keys(
        self, use_pool, use_cache, tiny_function
    ):
        pool = use_pool(1)
        cache = use_cache()
        tiny_function.trace(0, 1)
        with tiny_function.prefetch(0, [0, 1, 2]) as first:
            with tiny_function.prefetch(0, [2, 3]) as second:
                assert {key[2] for key in first} == {0, 2}
                assert [key[2] for key in second] == [3]
                for seed in range(4):
                    tiny_function.trace(0, seed)
        assert_all_claimed(pool)
        assert (cache.hits, cache.misses) == (1, 4)

    def test_pooled_trace_equals_inline(self, use_pool, use_cache,
                                        tiny_function):
        use_pool(2)
        use_cache(0)
        seeds = range(6)
        with tiny_function.prefetch(2, seeds):
            pooled = [tiny_function.trace(2, s) for s in seeds]
        inline = [tiny_function._synthesize(tiny_function.input_spec(2), 2, s,
                                            DEFAULT_SEED) for s in seeds]
        assert trace_digest(pooled) == trace_digest(inline)

    def test_workers_take_the_newest_key_first(self, use_pool):
        pool = use_pool(1)
        started = threading.Event()
        release = threading.Event()
        order = []

        def blocker():
            started.set()
            release.wait(timeout=60)

        pool.submit("blocker", blocker)
        assert started.wait(timeout=60)
        futures = [pool.submit(key, order.append, key) for key in "abc"]
        release.set()
        for future in futures:
            future.result(timeout=60)
        assert order == ["c", "b", "a"]

    def test_stress_more_workers_than_cores(self, use_pool, use_cache,
                                            tiny_function):
        """Eight workers, a tiny switch interval and cohorts left partly
        unclaimed: every submission is claimed or dropped exactly once
        and every claimed trace is bit-identical to inline synthesis."""
        pool = use_pool(8)
        use_cache(0)
        pooled, inline = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for start in range(0, 100, 20):
                seeds = range(start, start + 20)
                with tiny_function.prefetch(1, seeds):
                    pooled += [tiny_function.trace(1, s) for s in seeds[:15]]
                inline += [tiny_function._synthesize(
                    tiny_function.input_spec(1), 1, s, DEFAULT_SEED)
                    for s in seeds[:15]]
        finally:
            sys.setswitchinterval(interval)
        assert (pool.submitted, pool.claimed, pool.dropped) == (100, 75, 25)
        assert len(pool) == 0
        assert trace_digest(pooled) == trace_digest(inline)


def make_system(system_cls, function):
    return system_cls(function, *((0,) if system_cls is ReapSystem else ()))


class TestCacheBehaviour:
    """Under a budget that forces evictions, prefetching leaves the cache
    exactly as the sequential loop does: same hits, misses, evictions,
    retained bytes and key order."""

    SEEDS = list(range(10))

    def budget(self, function) -> int:
        one = function._synthesize(function.input_spec(3), 3, 0, DEFAULT_SEED)
        return 3 * one.nbytes + 512

    @pytest.mark.parametrize("system_cls", [DramBaseline, ReapSystem])
    def test_cohort_engine(self, use_pool, use_cache, tiny_function,
                           system_cls):
        budget = self.budget(tiny_function)
        states = []
        for workers in (0, 2):
            system = make_system(system_cls, tiny_function)
            pool = use_pool(workers)
            cache = use_cache(budget)
            outcomes = system.invoke_batch(3, self.SEEDS)
            assert system._cohort_memo, "took the scalar engine"
            states.append((cache_state(cache),
                           [o.exec_time_s for o in outcomes]))
        assert cache.evictions > 0
        assert_all_claimed(pool)
        assert states[0] == states[1]

    @pytest.mark.parametrize("system_cls", [DramBaseline, ReapSystem])
    def test_scalar_fallback_matches_invoke_loop(
        self, use_pool, use_cache, tiny_function, system_cls
    ):
        budget = self.budget(tiny_function)
        system = make_system(system_cls, tiny_function)
        use_pool(0)
        cache = use_cache(budget)
        sequential = [system.invoke(3, s) for s in self.SEEDS]
        expected = cache_state(cache)
        assert cache.evictions > 0

        system = make_system(system_cls, tiny_function)
        pool = use_pool(2)
        cache = use_cache(budget)
        with faults.injected(FaultPlan()):
            pooled = system.invoke_batch(3, self.SEEDS)
        assert not system._cohort_memo, "took the batch engine"
        assert cache_state(cache) == expected
        assert_all_claimed(pool)
        assert [o.exec_time_s for o in pooled] == [
            o.exec_time_s for o in sequential
        ]


class TestNoLeakedWork:
    def test_registry_empty_when_execute_cohort_raises(
        self, use_pool, use_cache, tiny_function, monkeypatch
    ):
        pool = use_pool(2)
        use_cache()
        system = DramBaseline(tiny_function)

        def boom(vm, traces):
            raise RuntimeError("cohort failed")

        monkeypatch.setattr("repro.baselines.base.execute_cohort", boom)
        with pytest.raises(RuntimeError, match="cohort failed"):
            system.invoke_batch(0, list(range(8)))
        assert pool.submitted > 0
        assert len(pool) == 0

    def test_worker_exception_keeps_its_type(self, use_pool, use_cache,
                                             tiny_function):
        pool = use_pool(1)
        cache = use_cache()
        model = overflowing(tiny_function)
        key = (model, 0, 7, DEFAULT_SEED)
        future = pool.submit(key, model._synthesize, model.input_spec(0), 0,
                             7, DEFAULT_SEED)
        assert isinstance(future.exception(timeout=60), ConfigError)  # a worker ran it
        with pytest.raises(ConfigError, match="int32"):
            model.trace(0, 7)
        assert len(pool) == 0 and pool.claimed == 1
        assert key not in cache

    def test_registry_empty_when_a_cohort_trace_fails(self, use_pool,
                                                      use_cache,
                                                      tiny_function):
        system = DramBaseline(overflowing(tiny_function))
        pool = use_pool(2)
        use_cache()
        with pytest.raises(ConfigError, match="int32"):
            system.invoke_batch(0, list(range(12)))
        # Seeds 0..7 were claimed (7 raised); 8..11 were dropped unclaimed.
        assert (pool.submitted, pool.claimed, pool.dropped) == (12, 8, 4)
        assert len(pool) == 0


class TestBatchPathsClaimEverything:
    def test_run_concurrent_and_waves(self, use_pool, use_cache,
                                      tiny_function):
        system = DramBaseline(tiny_function)
        pool = use_pool(2)
        use_cache()
        sched = Scheduler(n_cores=8)
        sched.run_concurrent(system, 3, 8, seed_base=100)
        sched.run_waves(system, 3, 20, seed_base=200)
        assert pool.submitted == 28
        assert_all_claimed(pool)

    def test_scalar_fallback_under_observation(self, use_pool, use_cache,
                                               tiny_function):
        system = DramBaseline(tiny_function)
        pool = use_pool(2)
        use_cache()
        with obs_runtime.observing():
            system.invoke_batch(1, list(range(6)))
        assert not system._cohort_memo, "took the batch engine"
        assert pool.submitted == 6
        assert_all_claimed(pool)

    def test_run_mixed(self, use_pool, use_cache, tiny_function):
        dram = DramBaseline(tiny_function)
        toss = TossSystem(tiny_function, convergence_window=3)
        pool = use_pool(2)
        use_cache()
        batch = [(dram, 3), (toss, 3), (dram, 0), (toss, 3)]
        pooled = Scheduler(n_cores=4).run_mixed(batch, seed_base=50)
        assert pool.submitted == 4
        assert_all_claimed(pool)
        use_pool(0)
        use_cache()
        assert Scheduler(n_cores=4).run_mixed(batch, seed_base=50) == pooled


EVERY_FUNCTION = (*SUITE, *EXTENDED_SUITE)
DIGEST_SEEDS = (0, 1)


@pytest.fixture(scope="module")
def inline_digest() -> str:
    return trace_digest(
        f._synthesize(f.input_spec(i), i, s, DEFAULT_SEED)
        for f in EVERY_FUNCTION for i in range(4) for s in DIGEST_SEEDS
    )


@pytest.mark.parametrize("workers", [1, None], ids=["one-worker", "default"])
def test_pooled_digest_matches_inline_over_every_function(
    use_pool, use_cache, inline_digest, workers
):
    """Bit-identical traces for every suite and extended function, all four
    inputs and two seeds, pooled vs inline ``_synthesize``."""
    seeds = DIGEST_SEEDS
    functions = EVERY_FUNCTION
    pool = use_pool(workers)
    use_cache(0)

    def pooled():
        for f in functions:
            with contextlib.ExitStack() as stack:
                for i in range(4):
                    stack.enter_context(f.prefetch(i, seeds))
                for i in range(4):
                    for s in seeds:
                        yield f.trace(i, s)

    assert trace_digest(pooled()) == inline_digest
    assert len(pool) == 0 and pool.dropped == 0


def test_fig9_sweep_equal_with_pool_on_and_off(use_pool, use_cache):
    """A small Figure 9 sweep from cold systems, pool on vs off."""
    cached = (common.dram_cached, common.toss_cached, common.reap_cached,
              common.warm_time_cached)
    results = []
    for workers in (2, 0):
        pool = use_pool(workers)
        use_cache()
        for fn in cached:
            fn.cache_clear()
        res = fig9_scalability.run(function_names=["pyaes"],
                                   concurrency_levels=(1, 5, 12))
        results.append((res.slowdown, res.utilization, res.table.render()))
        # Each of the 12 seeds is synthesised once; later systems hit.
        assert pool.claimed == pool.submitted == (12 if workers else 0)
        assert len(pool) == 0
    for fn in cached:
        fn.cache_clear()
    assert results[0] == results[1]


def serving_platform(functions, **kwargs) -> ServerlessPlatform:
    platform = ServerlessPlatform(
        toss_cfg=TossConfig(convergence_window=3, min_profiling_invocations=3),
        **kwargs,
    )
    for function in functions:
        platform.deploy(function)
    return platform


def mixed_stream(names, n: int, spacing_s: float) -> list[tuple]:
    """``n`` requests cycling through ``names`` with varied inputs."""
    return [(spacing_s * i, names[i % len(names)], (i * 3 + i // 5) % 4)
            for i in range(n)]


class TestSerialLookahead:
    """The profiling loop and ``serve`` predict their next keys; pool on
    (two workers) and off (none) must agree bit for bit.  The test
    functions' traces sit below the serial size floor, so it is lowered
    to zero here."""

    @pytest.fixture(autouse=True)
    def no_size_floor(self, monkeypatch):
        monkeypatch.setattr(trace_pool, "SERIAL_MIN_DRAWS", 0)

    def test_serve_equal_with_pool_on_and_off(
        self, use_pool, use_cache, tiny_function, memory_intensive_function
    ):
        functions = (tiny_function, memory_intensive_function, SUITE[1])
        budget = 3 * tiny_function._synthesize(
            tiny_function.input_spec(3), 3, 0, DEFAULT_SEED).nbytes
        stream = mixed_stream([f.name for f in functions], 90, 0.02)
        runs = []
        for workers in (0, 2):
            pool = use_pool(workers)
            cache = use_cache(budget)
            platform = serving_platform(functions, n_cores=4)
            log = platform.serve(stream)
            runs.append((log, cache_state(cache)))
        assert cache.evictions > 0
        assert {e.phase for e in log} >= {Phase.PROFILING, Phase.TIERED}
        assert pool.submitted > 0 and len(pool) == 0
        assert runs[0] == runs[1]

    def test_toss_system_equal_with_pool_on_and_off(
        self, use_pool, use_cache, tiny_function
    ):
        runs = []
        for workers in (0, 2):
            pool = use_pool(workers)
            cache = use_cache()
            system = TossSystem(tiny_function, convergence_window=3)
            runs.append((system.tiered_snapshot.placement().tobytes(),
                         system.slow_fraction, cache_state(cache)))
        assert pool.claimed > 0
        assert pool.dropped == trace_pool.LOOKAHEAD_DEPTH
        assert pool.submitted == pool.claimed + pool.dropped
        assert len(pool) == 0
        assert runs[0] == runs[1]

    def test_shed_free_stream_claims_every_key(
        self, use_pool, use_cache, tiny_function, memory_intensive_function
    ):
        pool = use_pool(2)
        use_cache()
        functions = (tiny_function, memory_intensive_function)
        log = serving_platform(functions, n_cores=2).serve(
            mixed_stream([f.name for f in functions], 60, 0.01))
        assert not any(e.shed or e.failed for e in log)
        assert_all_claimed(pool)

    def test_keepalive_warm_starts_are_predicted(
        self, use_pool, use_cache, tiny_function, memory_intensive_function
    ):
        functions = (tiny_function, memory_intensive_function)
        stream = mixed_stream([f.name for f in functions], 60, 0.05)
        runs = []
        for workers in (0, 2):
            pool = use_pool(workers)
            cache = use_cache()
            keepalive = KeepAliveCache(1024)
            log = serving_platform(functions, n_cores=2,
                                   keepalive=keepalive).serve(stream)
            runs.append((log, cache_state(cache)))
        assert keepalive.hits > 0
        assert_all_claimed(pool)
        assert runs[0] == runs[1]

    def test_shedding_stream_drops_wrong_guesses(
        self, use_pool, use_cache, tiny_function, monkeypatch
    ):
        pool = use_pool(2)
        use_cache()
        in_flight = []
        expect = trace_pool.Lookahead.expect

        def recording_expect(self, keys):
            submitted = expect(self, keys)
            in_flight.append(len(pool))
            return submitted

        monkeypatch.setattr(trace_pool.Lookahead, "expect", recording_expect)
        platform = serving_platform(
            (tiny_function,), n_cores=1,
            overload=OverloadConfig(max_queue_depth=1),
        )
        log = platform.serve([
            (*request, RequestClass.BATCH if i % 3 else RequestClass.LATENCY)
            for i, request in enumerate(mixed_stream(["tiny"], 80, 0.001))
        ])
        assert any(e.shed for e in log)
        assert pool.dropped > 0
        # Wrong guesses are dropped as they fall out of the window, not
        # left in flight until the end of the stream.
        assert max(in_flight) <= trace_pool.LOOKAHEAD_DEPTH + 1
        assert pool.submitted == pool.claimed + pool.dropped
        assert len(pool) == 0

    def test_registry_empty_when_serve_raises(
        self, use_pool, use_cache, tiny_function
    ):
        pool = use_pool(2)
        use_cache()
        platform = serving_platform(
            (tiny_function,), n_cores=4, keepalive=KeepAliveCache(1024))
        platform.serve([(0.05 * i, "tiny", 3) for i in range(20)])
        ctl = platform.deployments["tiny"].controller
        assert ctl.phase is Phase.TIERED
        # A keep-alive entry that outlived its tiered snapshot.
        ctl.tiered_snapshot = None
        before = pool.submitted
        with pytest.raises(SchedulerError, match="stale entry"):
            platform.serve([(2.0 + 0.05 * i, "tiny", i % 4)
                            for i in range(10)])
        assert pool.submitted > before
        assert len(pool) == 0
        assert pool.submitted == pool.claimed + pool.dropped


class TestSerialSizeFloor:
    def test_lookahead_skips_traces_below_min_draws(
        self, use_pool, use_cache, tiny_function
    ):
        pool = use_pool(1)
        use_cache()
        small, large = (tiny_function.split_draws(i) for i in (0, 3))
        keys = [(tiny_function, i, 0, DEFAULT_SEED) for i in (0, 3)]
        with trace_pool.lookahead(min_draws=(small + large) // 2) as ahead:
            assert ahead.expect(keys) == keys[1:]
        assert pool.submitted == pool.dropped == 1

    def test_serial_paths_skip_small_traces(self, use_pool, use_cache,
                                            tiny_function):
        pool = use_pool(2)
        use_cache()
        assert tiny_function.split_draws(3) < trace_pool.SERIAL_MIN_DRAWS
        TossSystem(tiny_function, convergence_window=3)
        serving_platform((tiny_function,), n_cores=2).serve(
            mixed_stream(["tiny"], 20, 0.05))
        assert pool.submitted == 0
