"""The execution kernel pinned against the epoch-loop engine it replaced.

:meth:`MicroVM.execute` and :func:`repro.sim.batchexec.execute_cohort`
both run the column kernel in :mod:`repro.sim.batchexec`.
:class:`ReferenceMicroVM` below is the per-epoch loop and ``_fault_in``
that ``MicroVM.execute`` ran before the kernel, pinned verbatim.  Every
test requires the kernel to reproduce it bit for bit: counters, demand
vectors and epoch durations, and afterwards the VM's residency, page
versions and host page cache.  The cases cover the two-tier chain and
compressed chains with one and two middle tiers, every :class:`Backing`
kind (SSD readahead carrying from one epoch to the next included), a
second warm execute on the same VM, store epochs, an active fault hook,
observation records and a cohort whose counts overflow int32.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.errors import VMError
from repro.faults import FaultInjector, FaultPlan, TierFaultSpec
from repro.memsim.accounting import PerfCounters
from repro.memsim.bandwidth import TierDemand
from repro.memsim.compressed import (
    DEFLATE_POINT,
    LZ4_POINT,
    ZSTD_POINT,
    compressed_memory_system,
)
from repro.memsim.page_cache import HostPageCache
from repro.memsim.tiers import DEFAULT_MEMORY_SYSTEM, Tier
from repro.obs import runtime as obs_runtime
from repro.sim.batchexec import execute_cohort
from repro.trace.events import InvocationTrace
from repro.vm.microvm import Backing, EpochRecord, ExecutionResult, MicroVM

# -- pinned pre-kernel engine -------------------------------------------------


class ReferenceMicroVM(MicroVM):
    """``MicroVM.execute`` as the per-epoch loop it was (pinned verbatim)."""

    def execute(self, trace: InvocationTrace) -> ExecutionResult:
        """Replay a trace, charging tier latencies and fault costs.

        Residency is sticky across calls (a second execute on the same VM
        runs warm); use :meth:`reset_residency` between cold runs.

        Each epoch's accesses are tallied per tier id over the memory
        system's chain: id 0 is the fast tier, id 1 the slow tier and
        ``2 + i`` middle tier ``i``.  Middle tiers are software pools
        resident in the fast tier's silicon, so their stall time and
        (ratio-scaled) physical bytes are charged to the fast resource for
        contention purposes, while the slow tier keeps its own read/write
        operation accounting.  On a two-tier system every middle-tier term
        is an exact ``+ 0.0``.
        """
        if trace.n_pages != self.n_pages:
            raise VMError(
                f"trace for {trace.n_pages}-page guest executed on "
                f"{self.n_pages}-page VM"
            )
        counters = PerfCounters()
        records: list[EpochRecord] = []
        # Resolve tier specs through the memory system so an active fault
        # hook (slow-tier backpressure) is reflected in this execution.
        slow = self.memory.spec(Tier.SLOW)
        fast = self.memory.spec(Tier.FAST)
        middle = self.memory.middle
        n_ids = self.memory.n_tiers
        # Physical bytes moved per logical access on each middle tier:
        # compressed pools move access_bytes / ratio over the DRAM bus.
        mid_bytes = [
            m.access_bytes / getattr(m, "effective_capacity_multiplier", 1.0)
            for m in middle
        ]

        fast_bytes = 0.0
        slow_read_ops = 0.0
        slow_write_ops = 0.0
        slow_read_stall = 0.0
        slow_write_stall = 0.0
        ssd_ops = 0.0
        uffd_ops = 0.0
        ssd_stall = 0.0
        uffd_stall = 0.0
        soft_fault = 0.0  # minor + copy faults: CPU-side, never contended

        # One cast per trace: intp indices take numpy's fast gather/scatter
        # path, int32 ones a slower casting path on every fancy index.
        pages_ix = trace.pages.astype(np.intp)
        bounds = trace.ptr.tolist()
        for e, epoch in enumerate(trace.epochs):
            pages = pages_ix[bounds[e]:bounds[e + 1]]
            counts = epoch.counts
            duration = epoch.cpu_time_s
            counters.cpu_time_s += epoch.cpu_time_s
            if pages.size:
                faults = self._fault_in(pages, counters)
                soft_fault += faults["soft_s"]
                ssd_stall += faults["ssd_s"]
                uffd_stall += faults["uffd_s"]
                ssd_ops += faults["ssd_ops"]
                uffd_ops += faults["uffd_ops"]
                duration += faults["soft_s"] + faults["ssd_s"] + faults["uffd_s"]

                tiers = self.placement[pages]
                per_id = np.bincount(tiers, weights=counts, minlength=n_ids)
                n_fast = float(per_id[int(Tier.FAST)])
                n_slow = float(per_id[int(Tier.SLOW)])

                lat_fast = fast.effective_access_latency_s(
                    epoch.random_fraction, epoch.store_fraction
                )
                lat_slow_read = slow.effective_load_latency_s(epoch.random_fraction)
                reads = n_slow * (1.0 - epoch.store_fraction)
                writes = n_slow * epoch.store_fraction

                e_fast_stall = n_fast * lat_fast
                e_read_stall = reads * lat_slow_read
                e_write_stall = writes * slow.store_latency_s
                e_mid_stall = 0.0
                n_mid = 0.0
                for i, spec in enumerate(middle):
                    n_i = float(per_id[2 + i])
                    if not n_i:
                        continue
                    n_mid += n_i
                    e_mid_stall += n_i * spec.effective_access_latency_s(
                        epoch.random_fraction, epoch.store_fraction
                    )
                    fast_bytes += n_i * mid_bytes[i]
                duration += e_fast_stall + e_read_stall + e_write_stall
                duration += e_mid_stall

                counters.fast_accesses += int(n_fast + n_mid)
                counters.slow_accesses += int(n_slow)
                counters.fast_stall_s += e_fast_stall + e_mid_stall
                counters.slow_stall_s += e_read_stall + e_write_stall
                fast_bytes += n_fast * fast.access_bytes
                slow_read_ops += reads
                slow_write_ops += writes
                slow_read_stall += e_read_stall
                slow_write_stall += e_write_stall

                # Stores dirty the touched pages (content versioning).
                if epoch.store_fraction > 0:
                    self.page_versions[pages] += 1

            records.append(EpochRecord(duration, epoch.pages, counts))

        demand = TierDemand(
            cpu_time_s=counters.cpu_time_s + soft_fault,
            fast_stall_s=counters.fast_stall_s,
            fast_bytes=fast_bytes,
            slow_read_stall_s=slow_read_stall,
            slow_read_ops=slow_read_ops,
            slow_write_stall_s=slow_write_stall,
            slow_write_ops=slow_write_ops,
            ssd_stall_s=ssd_stall,
            ssd_ops=ssd_ops,
            uffd_stall_s=uffd_stall,
            uffd_ops=uffd_ops,
        )
        result = ExecutionResult(
            counters=counters,
            demand=demand,
            epoch_records=tuple(records),
            label=trace.label,
        )
        obs = obs_runtime.active()
        if obs is not None:
            obs.tracer.record(
                "execute",
                result.time_s,
                attrs={
                    "vm": self.label,
                    "trace": trace.label,
                    "fast_accesses": counters.fast_accesses,
                    "slow_accesses": counters.slow_accesses,
                },
            )
            obs.metrics.histogram(
                "toss_execute_seconds",
                "Uncontended guest execution time per invocation",
            ).observe(result.time_s)
        return result

    # -- fault handling -----------------------------------------------------------

    def _fault_in(self, pages: np.ndarray, counters: PerfCounters) -> dict:
        """Serve first touches among ``pages``; returns cost breakdown.

        ``soft_s`` is CPU-side fault work (minor faults, PMEM page copies),
        ``ssd_s``/``uffd_s`` are stalls on the SSD / the userfaultfd
        handler, with the matching operation counts for contention.
        """
        new = pages[~self._resident[pages]]
        out = {"soft_s": 0.0, "ssd_s": 0.0, "uffd_s": 0.0, "ssd_ops": 0.0, "uffd_ops": 0.0}
        if new.size == 0:
            return out
        kinds = self.backing[new]

        n_zero = int(np.count_nonzero(kinds == int(Backing.ZERO)))
        n_dax = int(np.count_nonzero(kinds == int(Backing.DAX_SLOW)))
        n_copy = int(np.count_nonzero(kinds == int(Backing.PMEM_COPY)))
        n_uffd = int(np.count_nonzero(kinds == int(Backing.UFFD_SSD)))
        ssd_pages = new[kinds == int(Backing.SSD_FILE)]

        out["soft_s"] += (n_zero + n_dax) * config.MINOR_FAULT_LATENCY_S
        out["soft_s"] += n_copy * config.PMEM_COPY_FAULT_LATENCY_S
        counters.minor_faults += n_zero + n_dax + n_copy

        cpool_mask = kinds == int(Backing.COMPRESSED_POOL)
        if np.any(cpool_mask):
            # CPU-side decompression out of the software pool: a minor
            # fault plus the placed tier's per-page codec latency.
            pool_tiers = self.placement[new[cpool_mask]]
            n_pool = int(pool_tiers.size)
            out["soft_s"] += n_pool * config.MINOR_FAULT_LATENCY_S
            per_id = np.bincount(pool_tiers, minlength=self.memory.n_tiers)
            for tid, count in enumerate(per_id):
                if not count:
                    continue
                point = getattr(
                    self.memory.spec(tid), "compression", None
                )
                if point is not None:
                    out["soft_s"] += (
                        int(count) * point.decompress_page_latency_s
                    )
            counters.minor_faults += n_pool

        if n_uffd:
            out["uffd_s"] += n_uffd * config.UFFD_FAULT_LATENCY_S
            out["uffd_ops"] += n_uffd
            out["ssd_ops"] += n_uffd
            counters.major_faults += n_uffd

        if ssd_pages.size:
            if self.page_cache is None:
                self.page_cache = HostPageCache(
                    self.n_pages, readahead_pages=config.READAHEAD_PAGES
                )
            misses = self.page_cache.fault_in(ssd_pages)
            hits = int(ssd_pages.size) - misses
            out["ssd_s"] += misses * config.MAJOR_FAULT_LATENCY_S
            out["soft_s"] += hits * config.MINOR_FAULT_LATENCY_S
            out["ssd_ops"] += misses
            counters.major_faults += misses
            counters.minor_faults += hits

        counters.fault_stall_s += out["soft_s"] + out["ssd_s"] + out["uffd_s"]
        self._resident[new] = True
        return out


# -- helpers ------------------------------------------------------------------

CHAINS = {
    "two_tier": DEFAULT_MEMORY_SYSTEM,
    "lz4": compressed_memory_system((LZ4_POINT,)),
    "lz4_zstd": compressed_memory_system((LZ4_POINT, ZSTD_POINT), slow=None),
    "lz4_zstd_deflate": compressed_memory_system(
        (LZ4_POINT, ZSTD_POINT, DEFLATE_POINT), slow=None
    ),
}


def vm_pair(n_pages, memory, placement, backing, cls=MicroVM):
    """A kernel VM and a reference VM over the same page state."""
    return tuple(
        kind(n_pages, memory=memory, placement=placement, backing=backing)
        for kind in (cls, ReferenceMicroVM)
    )


def assert_identical(got: ExecutionResult, want: ExecutionResult) -> None:
    """Bit-for-bit equal counters, demand and epoch records."""
    for obj_got, obj_want in (
        (got.counters, want.counters),
        (got.demand, want.demand),
    ):
        for f in dataclasses.fields(obj_want):
            vg, vw = getattr(obj_got, f.name), getattr(obj_want, f.name)
            assert vg == vw and type(vg) is type(vw), f.name
    assert got.label == want.label
    assert len(got.epoch_records) == len(want.epoch_records)
    for rg, rw in zip(got.epoch_records, want.epoch_records):
        assert rg.duration_s == rw.duration_s
        assert np.array_equal(rg.pages, rw.pages)
        assert np.array_equal(rg.counts, rw.counts)


def assert_same_state(vm: MicroVM, ref: MicroVM) -> None:
    """Residency, content versions and host page cache agree."""
    assert np.array_equal(vm._resident, ref._resident)
    assert np.array_equal(vm.page_versions, ref.page_versions)
    assert (vm.page_cache is None) == (ref.page_cache is None)
    if vm.page_cache is not None:
        assert np.array_equal(
            vm.page_cache.resident_mask(), ref.page_cache.resident_mask()
        )
        assert np.array_equal(
            vm.page_cache.demand_loaded_mask(),
            ref.page_cache.demand_loaded_mask(),
        )


def random_trace(
    rng: np.random.Generator, n_pages: int, n_epochs: int, label: str = ""
) -> InvocationTrace:
    """A random CSR trace: sorted unique pages per epoch, some empty
    epochs, mixed random/store fractions."""
    pages, sizes = [], []
    for _ in range(n_epochs):
        size = int(rng.integers(0, min(n_pages, 40) + 1))
        if rng.random() < 0.15:
            size = 0
        pages.append(np.sort(rng.choice(n_pages, size=size, replace=False)))
        sizes.append(size)
    flat = np.concatenate([np.empty(0, dtype=np.int64), *pages])
    store = rng.random(n_epochs) * (rng.random(n_epochs) < 0.6)
    return InvocationTrace.from_columns(
        n_pages,
        pages=flat,
        counts=rng.integers(1, 5000, size=flat.size),
        ptr=np.cumsum([0, *sizes]),
        cpu_time_s=rng.random(n_epochs) * 1e-3,
        random_fraction=rng.random(n_epochs),
        store_fraction=store,
        label=label,
    )


def random_state(
    rng: np.random.Generator,
    n_pages: int,
    memory,
    kinds=tuple(Backing),
):
    """Random placement over the chain's tier ids and backing kinds."""
    placement = rng.choice(
        np.asarray(memory.tier_ids, dtype=np.uint8), size=n_pages
    )
    backing = rng.choice(np.asarray(kinds, dtype=np.uint8), size=n_pages)
    return placement, backing


# -- kernel == reference ------------------------------------------------------


class TestExecuteMatchesReference:
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize("seed", range(4))
    def test_every_backing_kind_cold_then_warm(self, chain, seed):
        """All backing kinds on every chain, then a second execute of a
        different trace on the same (now partly resident) VM."""
        rng = np.random.default_rng(seed)
        memory = CHAINS[chain]
        n_pages = 256
        placement, backing = random_state(rng, n_pages, memory)
        vm, ref = vm_pair(n_pages, memory, placement, backing)
        for label in ("cold", "warm"):
            trace = random_trace(rng, n_pages, 12, label=label)
            assert_identical(vm.execute(trace), ref.execute(trace))
            assert_same_state(vm, ref)
        # Re-running the same trace is fully warm.
        assert_identical(vm.execute(trace), ref.execute(trace))
        assert_same_state(vm, ref)

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize(
        "kind", [k for k in Backing if k is not Backing.RESIDENT]
    )
    def test_single_backing_kind(self, chain, kind):
        rng = np.random.default_rng(int(kind))
        memory = CHAINS[chain]
        n_pages = 128
        placement, _ = random_state(rng, n_pages, memory)
        backing = np.full(n_pages, int(kind), dtype=np.uint8)
        backing[::7] = int(Backing.RESIDENT)
        vm, ref = vm_pair(n_pages, memory, placement, backing)
        trace = random_trace(rng, n_pages, 9)
        assert_identical(vm.execute(trace), ref.execute(trace))
        assert_same_state(vm, ref)

    def test_ssd_readahead_carries_across_epochs(self):
        """Readahead from one epoch's miss serves the next epoch's first
        touches as page-cache hits — the cache is consulted per epoch, in
        epoch order."""
        n_pages = 64
        backing = np.full(n_pages, int(Backing.SSD_FILE), dtype=np.uint8)
        placement = np.zeros(n_pages, dtype=np.uint8)
        vm, ref = vm_pair(n_pages, DEFAULT_MEMORY_SYSTEM, placement, backing)
        trace = InvocationTrace.from_columns(
            n_pages,
            pages=[0, 1, 2, 3, 4, 20, 5, 6, 21, 22, 40],
            counts=[3] * 11,
            ptr=[0, 1, 6, 6, 9, 11],
            cpu_time_s=[1e-4] * 5,
            random_fraction=[0.0, 0.5, 0.0, 1.0, 0.25],
            store_fraction=[0.0, 0.5, 0.0, 0.0, 1.0],
        )
        want = ref.execute(trace)
        assert want.counters.minor_faults > 0  # readahead hits happened
        assert want.counters.major_faults == 3
        assert_identical(vm.execute(trace), want)
        assert_same_state(vm, ref)
        # A shared cache keeps its state into the next VM's execute.
        cache_vm = HostPageCache(n_pages, readahead_pages=config.READAHEAD_PAGES)
        cache_ref = HostPageCache(n_pages, readahead_pages=config.READAHEAD_PAGES)
        cache_vm.fault_in(np.array([30]))
        cache_ref.fault_in(np.array([30]))
        vm2 = MicroVM(n_pages, placement=placement, backing=backing,
                      page_cache=cache_vm)
        ref2 = ReferenceMicroVM(n_pages, placement=placement, backing=backing,
                                page_cache=cache_ref)
        assert_identical(vm2.execute(trace), ref2.execute(trace))
        assert_same_state(vm2, ref2)

    def test_store_epochs_bump_page_versions(self):
        rng = np.random.default_rng(11)
        n_pages = 96
        placement, backing = random_state(
            rng, n_pages, DEFAULT_MEMORY_SYSTEM,
            kinds=(Backing.RESIDENT, Backing.ZERO),
        )
        vm, ref = vm_pair(n_pages, DEFAULT_MEMORY_SYSTEM, placement, backing)
        for _ in range(3):
            trace = random_trace(rng, n_pages, 10)
            assert_identical(vm.execute(trace), ref.execute(trace))
        assert vm.page_versions.max() >= 2
        assert_same_state(vm, ref)

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_active_fault_hook(self, chain):
        """Slow-tier backpressure is resolved once per execute, exactly as
        often as the loop resolved it."""
        rng = np.random.default_rng(5)
        n_pages = 128
        base = CHAINS[chain]
        plan = FaultPlan(
            tier=TierFaultSpec(backpressure_windows=((0.0, 10.0, 4.0),))
        )
        hooks = FaultInjector(plan), FaultInjector(plan)
        placement, backing = random_state(
            rng, n_pages, base,
            kinds=tuple(k for k in Backing if k is not Backing.COMPRESSED_POOL),
        )
        vm = MicroVM(n_pages, memory=base.with_fault_hook(hooks[0]),
                     placement=placement, backing=backing)
        ref = ReferenceMicroVM(n_pages, memory=base.with_fault_hook(hooks[1]),
                               placement=placement, backing=backing)
        trace = random_trace(rng, n_pages, 8)
        got = vm.execute(trace)
        want = ref.execute(trace)
        assert_identical(got, want)
        assert_same_state(vm, ref)
        assert hooks[0].counters == hooks[1].counters
        assert hooks[0].counters["backpressure_hits"] == 1
        plain = MicroVM(n_pages, memory=base, placement=placement,
                        backing=backing).execute(trace)
        assert got.counters.slow_stall_s > plain.counters.slow_stall_s

    def test_observation_record(self):
        rng = np.random.default_rng(3)
        n_pages = 64
        placement, backing = random_state(rng, n_pages, DEFAULT_MEMORY_SYSTEM)
        trace = random_trace(rng, n_pages, 6, label="observed")
        records = []
        for cls in (MicroVM, ReferenceMicroVM):
            vm = cls(n_pages, placement=placement, backing=backing, label="vm")
            with obs_runtime.observing() as obs:
                vm.execute(trace)
            (span,) = obs.tracer.spans
            hist = obs.metrics.histogram("toss_execute_seconds", "")
            records.append((span.name, span.start_s, span.end_s, span.attrs,
                            hist.count(), hist.sum()))
        assert records[0] == records[1]

    def test_page_count_mismatch_rejected(self):
        vm = MicroVM(32)
        with pytest.raises(VMError):
            vm.execute(random_trace(np.random.default_rng(0), 64, 3))

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(sorted(CHAINS)),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_random_traces(self, seed, chain, n_pages, n_epochs):
        rng = np.random.default_rng(seed)
        memory = CHAINS[chain]
        placement, backing = random_state(rng, n_pages, memory)
        vm, ref = vm_pair(n_pages, memory, placement, backing)
        for _ in range(2):
            trace = random_trace(rng, n_pages, n_epochs)
            assert_identical(vm.execute(trace), ref.execute(trace))
            assert_same_state(vm, ref)


# -- cohort == reference ------------------------------------------------------


class TestCohortMatchesReference:
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_cohort_of_fresh_restores(self, chain):
        """execute_cohort == a fresh reference VM per trace; the template
        is not mutated."""
        rng = np.random.default_rng(21)
        memory = CHAINS[chain]
        n_pages = 200
        placement, backing = random_state(
            rng, n_pages, memory,
            kinds=tuple(k for k in Backing if k is not Backing.SSD_FILE),
        )
        template = MicroVM(n_pages, memory=memory, placement=placement,
                           backing=backing)
        before = template._resident.copy(), template.page_versions.copy()
        traces = [random_trace(rng, n_pages, int(rng.integers(0, 15)))
                  for _ in range(6)]
        for trace, got in zip(traces, execute_cohort(template, traces)):
            ref = ReferenceMicroVM(n_pages, memory=memory,
                                   placement=placement, backing=backing)
            assert_identical(got, ref.execute(trace))
        assert np.array_equal(template._resident, before[0])
        assert np.array_equal(template.page_versions, before[1])

    def test_cohort_rejects_page_cache(self):
        backing = np.full(16, int(Backing.SSD_FILE), dtype=np.uint8)
        template = MicroVM(16, backing=backing)
        with pytest.raises(VMError):
            execute_cohort(template, [random_trace(np.random.default_rng(0), 16, 2)])

    def test_int32_overflow_cohort(self):
        """Every tally accumulates in int64: a cohort whose accesses
        exceed 2**31 matches the loop exactly, on every chain."""
        n_pages = 64
        big = np.iinfo(np.int32).max
        for memory in CHAINS.values():
            placement = np.zeros(n_pages, dtype=np.uint8)
            placement[::2] = int(Tier.SLOW)
            placement[1::4] = memory.tier_ids[1]
            backing = np.full(n_pages, int(Backing.RESIDENT), dtype=np.uint8)
            backing[16:48] = int(Backing.UFFD_SSD)
            backing[48:] = int(Backing.COMPRESSED_POOL)
            template = MicroVM(n_pages, memory=memory, placement=placement,
                               backing=backing)
            traces = [
                InvocationTrace.from_columns(
                    n_pages,
                    pages=np.concatenate(
                        [np.arange(s + 8 * e, s + 8 * e + 16) for e in range(3)]
                    ),
                    counts=np.concatenate(
                        [np.full(16, big - e) for e in range(3)]
                    ),
                    ptr=[0, 16, 32, 48],
                    cpu_time_s=[0.01] * 3,
                    random_fraction=[0.3] * 3,
                    store_fraction=[0.25] * 3,
                )
                for s in (0, 10, 30)
            ]
            batch = execute_cohort(template, traces)
            assert sum(t.total_accesses for t in traces) > 2**31
            for trace, got in zip(traces, batch):
                ref = ReferenceMicroVM(n_pages, memory=memory,
                                       placement=placement, backing=backing)
                assert_identical(got, ref.execute(trace))
                assert got.counters.slow_accesses > 2**31


# -- real function traces -----------------------------------------------------


@pytest.mark.parametrize("name", ["pyaes", "json_load_dump"])
def test_function_traces_match_reference(name):
    from repro.functions import get_function

    function = get_function(name)
    trace = function.trace(0, 1)
    rng = np.random.default_rng(7)
    for memory in CHAINS.values():
        placement, backing = random_state(rng, trace.n_pages, memory)
        vm, ref = vm_pair(trace.n_pages, memory, placement, backing)
        assert_identical(vm.execute(trace), ref.execute(trace))
        assert_same_state(vm, ref)
