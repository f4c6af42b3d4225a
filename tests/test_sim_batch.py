"""Bit-identity tests for the vectorized batch event kernel.

The batch fast path (:mod:`repro.sim.batch`, :mod:`repro.sim.batchexec`,
the vectorized contention replay, ``EventLoop.schedule_batch`` and
``TokenBucket.consume_batch``) promises *bit-identical* results to the
coroutine/scalar code it shortcuts.  These tests pin that contract:

* hypothesis properties drive randomized cohorts — including exact
  same-timestamp ties and token-bucket contention — through both engines
  and require identical drain orders and identical floats;
* the pre-change scalar replay loop is pinned verbatim as a reference
  and the vectorized replay must reproduce its samples exactly;
* ``invoke_batch`` on real systems must reproduce the scalar
  ``invoke`` loop field for field, including when answered from the
  per-system cohort memo.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.memsim.bandwidth import RESOURCES, ContentionModel, TierDemand
from repro.memsim.storage import OPTANE_SSD_SPEC
from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM
from repro.sim.batch import SampleBuffer, segment_fold_left, segment_sums_int
from repro.sim.contention import EventScheduler, UtilizationSample, _summarize
from repro.sim.loop import EventLoop
from repro.sim.resources import TokenBucket

# -- strategies ----------------------------------------------------------------

TIMES = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    min_size=1,
    max_size=40,
)
PRIORITIES = st.integers(min_value=0, max_value=3)
AMOUNTS = st.lists(
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    min_size=1,
    max_size=30,
)


def _with_ties(times: list[float]) -> list[float]:
    """Duplicate half the cohort so exact same-timestamp ties occur."""
    return times + times[: len(times) // 2]


# -- drain order ---------------------------------------------------------------


class TestDrainOrder:
    @given(TIMES)
    @settings(max_examples=60, deadline=None)
    def test_schedule_batch_matches_scalar_scheduling(self, times):
        """Batched and per-call scheduling fire identically, ties FIFO."""
        times = _with_ties(times)
        scalar_loop = EventLoop()
        scalar_fired: list[tuple[int, float]] = []
        seq = {"i": 0}

        def scalar_cb(now: float) -> None:
            scalar_fired.append((seq["i"], now))
            seq["i"] += 1

        for t in times:
            scalar_loop.schedule_at(t, scalar_cb, priority=2, category="a")
        scalar_loop.run()

        batch_loop = EventLoop()
        batch_fired: list[tuple[int, float]] = []
        bseq = {"i": 0}

        def batch_cb(now: float) -> None:
            batch_fired.append((bseq["i"], now))
            bseq["i"] += 1

        entries = batch_loop.schedule_batch(
            times, batch_cb, priority=2, category="a"
        )
        assert len(entries) == len(times)
        assert batch_loop.live_count("a") == len(times)
        batch_loop.run()
        assert batch_fired == scalar_fired
        assert batch_loop.now == scalar_loop.now

    def test_schedule_batch_rejects_past_and_bad_shapes(self):
        loop = EventLoop(start_s=5.0)
        with pytest.raises(ConfigError):
            loop.schedule_batch([6.0, 4.0], lambda _n: None)
        with pytest.raises(ConfigError):
            loop.schedule_batch(np.zeros((2, 2)), lambda _n: None)
        assert loop.schedule_batch([], lambda _n: None) == []


# -- token bucket --------------------------------------------------------------


class TestConsumeBatch:
    @given(AMOUNTS, st.floats(min_value=0.1, max_value=200.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_consume_chain(self, amounts, rate):
        """consume_batch == consume called per amount, bit for bit —
        including contended draws that leave the bucket in debt."""
        loop_a, loop_b = EventLoop(), EventLoop()
        scalar = TokenBucket("b", rate, loop=loop_a)
        batch = TokenBucket("b", rate, loop=loop_b)
        scalar_waits = [scalar.consume(a) for a in amounts]
        batch_waits = batch.consume_batch(amounts)
        assert list(batch_waits) == scalar_waits
        assert batch.tokens == scalar.tokens
        assert batch.consumed_total == scalar.consumed_total

    def test_rejects_negative_and_bad_shape(self):
        loop = EventLoop()
        bucket = TokenBucket("b", 10.0, loop=loop)
        with pytest.raises(ConfigError):
            bucket.consume_batch([1.0, -2.0])
        with pytest.raises(ConfigError):
            bucket.consume_batch(np.zeros((2, 2)))
        assert bucket.consume_batch([]).size == 0
        assert bucket.tokens == 10.0

    @given(AMOUNTS, st.floats(min_value=0.5, max_value=50.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_contended_waits_order_processes_identically(self, amounts, rate):
        """Processes delayed by bucket waits finish in the same order
        whether the waits came from the scalar or the batch draw."""

        def run(waits):
            loop = EventLoop()
            finished: list[int] = []

            def body(i, wait):
                def _proc():
                    from repro.sim.loop import Delay

                    yield Delay(wait)
                    finished.append(i)

                return _proc()

            for i, w in enumerate(waits):
                loop.spawn(body(i, float(w)), name=f"p{i}")
            loop.run()
            return finished

        loop_a, loop_b = EventLoop(), EventLoop()
        scalar = TokenBucket("b", rate, loop=loop_a)
        batch = TokenBucket("b", rate, loop=loop_b)
        scalar_order = run([scalar.consume(a) for a in amounts])
        batch_order = run(batch.consume_batch(amounts))
        assert scalar_order == batch_order


# -- segment folds -------------------------------------------------------------

RAGGED = st.lists(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=0,
        max_size=8,
    ),
    min_size=1,
    max_size=12,
)


class TestSegmentFolds:
    @given(RAGGED)
    @settings(max_examples=80, deadline=None)
    def test_fold_left_matches_scalar_accumulation(self, segments):
        values = np.array(
            [x for seg in segments for x in seg], dtype=np.float64
        )
        ptr = np.zeros(len(segments) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in segments], out=ptr[1:])
        got = segment_fold_left(values, ptr)
        # A stacked input folds every row with the same segmentation.
        stacked = segment_fold_left(np.stack([values, values * 0.1]), ptr)
        for i, seg in enumerate(segments):
            acc = 0.0
            for x in seg:
                acc += x
            assert got[i] == acc
            assert stacked[0, i] == acc
            acc = 0.0
            for x in seg:
                acc += x * 0.1
            assert stacked[1, i] == acc

    @given(RAGGED)
    @settings(max_examples=80, deadline=None)
    def test_int_sums_exact(self, segments):
        ints = [[int(x) for x in seg] for seg in segments]
        values = np.array([x for seg in ints for x in seg], dtype=np.int64)
        ptr = np.zeros(len(ints) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in ints], out=ptr[1:])
        got = segment_sums_int(values, ptr)
        assert list(got) == [sum(seg) for seg in ints]
        stacked = segment_sums_int(np.stack([values, -values]), ptr)
        assert list(stacked[0]) == list(got)
        assert list(stacked[1]) == [-sum(seg) for seg in ints]


# -- contention replay ---------------------------------------------------------


def _scalar_replay(model, demands, times, inflation):
    """The pre-vectorization event-loop replay, pinned verbatim."""
    loop = EventLoop()
    capacities = model.capacities
    active_rate = {r: 0.0 for r in RESOURCES}
    samples: list[UtilizationSample] = []

    def sample(_now):
        for r in RESOURCES:
            samples.append(
                UtilizationSample(
                    time_s=loop.now,
                    resource=r,
                    offered_rho=active_rate[r] / capacities[r],
                    inflation=inflation[r],
                )
            )

    def finish(delta, t):
        def _fire(_now):
            for r in RESOURCES:
                active_rate[r] -= delta[r]
            sample(_now)

        loop.schedule_at(t, _fire)

    for demand, t in zip(demands, times):
        work = demand._stalls_and_work()
        denom = max(t, 1e-12)
        delta = {r: work[r][1] / denom for r in RESOURCES}
        for r in RESOURCES:
            active_rate[r] += delta[r]
        finish(delta, t)
    sample(loop.now)
    loop.run()
    return tuple(samples)


DEMANDS = st.lists(
    st.builds(
        TierDemand,
        cpu_time_s=st.floats(min_value=1e-4, max_value=0.5, allow_nan=False),
        slow_read_stall_s=st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
        slow_read_ops=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        uffd_stall_s=st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
        uffd_ops=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    ),
    min_size=1,
    max_size=16,
)


class TestReplayIdentity:
    @given(DEMANDS)
    @settings(max_examples=40, deadline=None)
    def test_vectorized_replay_matches_scalar(self, demands):
        demands = demands + demands[: len(demands) // 2]  # tie times
        model = ContentionModel(DEFAULT_MEMORY_SYSTEM, OPTANE_SSD_SPEC)
        engine = EventScheduler(model)
        times, inflation = model._solve(demands)
        reference = _scalar_replay(model, demands, times, inflation)
        got_times, got_infl = engine.run_synchronized(demands)
        assert got_times == times
        assert got_infl == dict(inflation)
        assert engine.utilization_summary() == _summarize(reference)
        assert engine.last_samples == reference
        # After materialization the summary comes from the tuple path.
        assert engine.utilization_summary() == _summarize(reference)

    def test_sample_buffer_round_trip(self):
        buf = SampleBuffer(3)
        buf.append_event(0.0, np.array([0.1] * 5), np.array([1.0] * 5))
        buf.fill_events(
            np.array([1.0, 2.0]),
            np.full((2, 5), 0.25),
            np.full((2, 5), 1.5),
        )
        assert buf.n_events == 3 and len(buf) == 15
        samples = buf.to_samples()
        assert [s.resource for s in samples[:5]] == list(RESOURCES)
        assert buf.summarize() == _summarize(samples)

    def test_empty_buffer_summary(self):
        assert SampleBuffer(0).summarize() == _summarize(())


# -- batch invoke --------------------------------------------------------------


def _assert_outcomes_identical(scalar, batch):
    assert len(scalar) == len(batch)
    for a, b in zip(scalar, batch):
        assert (a.system, a.input_index, a.seed) == (
            b.system,
            b.input_index,
            b.seed,
        )
        assert a.setup_time_s == b.setup_time_s
        for f in dataclasses.fields(a.execution.counters):
            va = getattr(a.execution.counters, f.name)
            vb = getattr(b.execution.counters, f.name)
            assert va == vb and type(va) is type(vb), f.name
        for f in dataclasses.fields(a.execution.demand):
            va = getattr(a.execution.demand, f.name)
            vb = getattr(b.execution.demand, f.name)
            assert va == vb and type(va) is type(vb), f.name
        assert a.execution.label == b.execution.label
        assert len(a.execution.epoch_records) == len(b.execution.epoch_records)
        for ra, rb in zip(a.execution.epoch_records, b.execution.epoch_records):
            assert ra.duration_s == rb.duration_s
            assert (ra.pages == rb.pages).all()
            assert (ra.counts == rb.counts).all()


@pytest.mark.parametrize("system_kind", ["dram", "toss", "reap"])
def test_invoke_batch_bit_identical(system_kind):
    """invoke_batch == the scalar invoke loop, twice (second from memo)."""
    from repro.experiments.common import dram_cached, reap_cached, toss_cached

    if system_kind == "dram":
        system = dram_cached("float_operation")
    elif system_kind == "toss":
        system = toss_cached("float_operation")
    else:
        system = reap_cached("float_operation", 3)
    seeds = list(range(4))
    scalar = [system.invoke(1, s) for s in seeds]
    _assert_outcomes_identical(scalar, system.invoke_batch(1, seeds))
    # Second call answers from the per-system cohort memo.
    _assert_outcomes_identical(scalar, system.invoke_batch(1, seeds))
    # Mutating a returned counters object must not poison the memo.
    tainted = system.invoke_batch(1, seeds)
    tainted[0].execution.counters.cpu_time_s = -1.0
    _assert_outcomes_identical(scalar, system.invoke_batch(1, seeds))


def test_cohort_counters_exact_past_int32():
    """int32 trace counts: every tally accumulates in int64, so a cohort
    whose accesses exceed 2**31 matches the scalar engine exactly."""
    from repro.memsim.tiers import Tier
    from repro.sim.batchexec import execute_cohort
    from repro.trace.events import AccessEpoch, InvocationTrace
    from repro.vm.microvm import Backing, MicroVM

    n_pages = 64
    big = np.iinfo(np.int32).max
    placement = np.zeros(n_pages, dtype=np.uint8)
    placement[::2] = int(Tier.SLOW)
    backing = np.full(n_pages, int(Backing.RESIDENT), dtype=np.uint8)
    backing[16:48] = int(Backing.UFFD_SSD)
    backing[48:] = int(Backing.ZERO)
    template = MicroVM(n_pages, placement=placement, backing=backing)

    def trace(shift: int) -> InvocationTrace:
        epochs = tuple(
            AccessEpoch(
                0.01,
                np.arange(shift + 8 * e, shift + 8 * e + 16),
                np.full(16, big - e),
                random_fraction=0.3,
                store_fraction=0.25,
            )
            for e in range(3)
        )
        return InvocationTrace(n_pages=n_pages, epochs=epochs)

    traces = [trace(shift) for shift in (0, 10, 30)]
    total = sum(t.total_accesses for t in traces)
    assert total > 2**31 and total == sum(16 * 3 * big - 16 * 3 for _ in traces)
    batch = execute_cohort(template, traces)
    for t, b in zip(traces, batch):
        vm = MicroVM(n_pages, placement=placement, backing=backing)
        s = vm.execute(t)
        assert s.counters == b.counters
        assert s.demand == b.demand
        assert b.counters.fast_accesses + b.counters.slow_accesses == (
            t.total_accesses
        )
        assert b.counters.slow_accesses > 2**31


@pytest.mark.parametrize("backing_kind", ["RESIDENT", "COMPRESSED_POOL"])
def test_cohort_prices_compressed_middle_tier(backing_kind):
    """Pages placed on an lz4 pool tier are charged at the pool's latency
    and ratio-scaled bytes (and, when pool-backed, its per-page
    decompress) — by the cohort exactly as by a per-trace execute."""
    from repro.memsim.compressed import LZ4_POINT, compressed_memory_system
    from repro.sim.batchexec import execute_cohort
    from repro.trace.events import AccessEpoch, InvocationTrace
    from repro.vm.microvm import Backing, MicroVM

    memory = compressed_memory_system((LZ4_POINT,))
    n_pages = 64
    placement = np.zeros(n_pages, dtype=np.uint8)
    placement[16:48] = 2
    placement[48:] = 1
    backing = np.full(n_pages, int(Backing.RESIDENT), dtype=np.uint8)
    backing[16:48] = int(Backing[backing_kind])

    def trace(shift: int) -> InvocationTrace:
        epochs = tuple(
            AccessEpoch(
                0.01,
                np.arange(shift + 8 * e, shift + 8 * e + 24),
                np.full(24, 100 + e),
                random_fraction=0.2,
                store_fraction=0.1 * e,
            )
            for e in range(3)
        )
        return InvocationTrace(n_pages=n_pages, epochs=epochs, label=f"t{shift}")

    template = MicroVM(
        n_pages, memory=memory, placement=placement, backing=backing
    )
    traces = [trace(shift) for shift in (0, 8, 16)]
    batch = execute_cohort(template, traces)
    pool_bytes = memory.middle[0].access_bytes / LZ4_POINT.ratio
    for t, b in zip(traces, batch):
        vm = MicroVM(n_pages, memory=memory, placement=placement, backing=backing)
        s = vm.execute(t)
        _assert_outcomes_identical_executions(s, b)
        tiers = placement[t.pages]
        n_pool = int(t.counts[tiers == 2].sum())
        n_fast = int(t.counts[tiers == 0].sum())
        assert b.demand.fast_bytes == pytest.approx(
            n_fast * 64 + n_pool * pool_bytes
        )
        if backing_kind == "COMPRESSED_POOL":
            assert b.counters.minor_faults == np.count_nonzero(
                placement[t.working_set] == 2
            )


def _assert_outcomes_identical_executions(a, b):
    for f in dataclasses.fields(a.counters):
        va, vb = getattr(a.counters, f.name), getattr(b.counters, f.name)
        assert va == vb and type(va) is type(vb), f.name
    for f in dataclasses.fields(a.demand):
        va, vb = getattr(a.demand, f.name), getattr(b.demand, f.name)
        assert va == vb and type(va) is type(vb), f.name
    assert [r.duration_s for r in a.epoch_records] == [
        r.duration_s for r in b.epoch_records
    ]
