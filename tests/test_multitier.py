"""Tests for the N-tier chain search and the three-tier presets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analysis import ProfilingAnalyzer, _chain_time_s
from repro.core.cost import normalized_cost_tiers
from repro.errors import AnalysisError
from repro.memsim.presets import DRAM_CXL_NVME, DRAM_PMEM_NVME
from repro.memsim.tiers import (
    DEFAULT_MEMORY_SYSTEM,
    DRAM_SPEC,
    PMEM_SPEC,
    MemorySystem,
)
from repro.profiling import DamonProfiler, UnifiedAccessPattern
from repro.vm.microvm import MicroVM
from repro.vm.vmm import VMM

from conftest import make_trace
from test_core_analysis import profiled_pattern

PRESETS = (DRAM_CXL_NVME, DRAM_PMEM_NVME)


class TestTierLadder:
    """The three-tier presets are well-formed chains."""

    def test_valid_ladders(self):
        for memory in PRESETS:
            assert memory.n_tiers == 3
            assert memory.tier_ids == (0, 2, 1)

    def test_price_ratios_non_increasing(self):
        for memory in PRESETS:
            ratios = [memory.price_relative(t) for t in memory.tier_ids]
            assert ratios[0] == pytest.approx(1.0)
            assert all(b <= a for a, b in zip(ratios, ratios[1:]))

    def test_optimal_cost_is_cheapest_rung(self):
        assert DRAM_CXL_NVME.optimal_normalized_cost == pytest.approx(
            DRAM_CXL_NVME.chain[-1].cost_per_mb / DRAM_SPEC.cost_per_mb
        )

    def test_latencies_monotone(self):
        for memory in PRESETS:
            lat = memory.access_latency_by_id()[list(memory.tier_ids)]
            assert all(b >= a for a, b in zip(lat, lat[1:]))


class TestMultiTierCost:
    """Equation 1 over a three-tier chain (fractions in chain order)."""

    def test_all_top_tier_is_one(self):
        assert normalized_cost_tiers(1.0, [1.0, 0.0, 0.0], DRAM_CXL_NVME) == 1.0

    def test_all_bottom_is_optimal(self):
        cost = normalized_cost_tiers(1.0, [0.0, 0.0, 1.0], DRAM_CXL_NVME)
        assert cost == pytest.approx(DRAM_CXL_NVME.optimal_normalized_cost)

    def test_two_tier_degenerate_matches_equation_1(self):
        memory = MemorySystem(fast=DRAM_SPEC, slow=PMEM_SPEC)
        cost = normalized_cost_tiers(1.2, [0.3, 0.7], memory)
        assert cost == pytest.approx(1.2 * (0.3 + 0.7 / 2.5))

    def test_validation(self):
        with pytest.raises(AnalysisError):
            normalized_cost_tiers(0.9, [1, 0, 0], DRAM_CXL_NVME)
        with pytest.raises(AnalysisError):
            normalized_cost_tiers(1.0, [0.5, 0.5], DRAM_CXL_NVME)
        with pytest.raises(AnalysisError):
            normalized_cost_tiers(1.0, [0.9, 0.2, -0.1], DRAM_CXL_NVME)


class TestMultiTierVM:
    """The search's lean evaluator, pinned against ``MicroVM.execute``."""

    def test_rung_latency_ordering(self):
        trace = make_trace(pages=(0,), counts=(100_000,), cpu_time_s=0.001)
        times = [
            _chain_time_s(np.full(4096, tier, dtype=np.uint8), trace, DRAM_CXL_NVME)
            for tier in DRAM_CXL_NVME.tier_ids
        ]
        assert times == sorted(times)

    def test_slowdown_reference(self):
        trace = make_trace(pages=(0,), counts=(100_000,), cpu_time_s=0.001)
        fast = np.zeros(4096, dtype=np.uint8)
        assert _chain_time_s(fast, trace, DRAM_CXL_NVME) == pytest.approx(
            0.001 + 100_000 * DRAM_SPEC.load_latency_s
        )

    def test_fractions(self, tiny_function):
        pattern = profiled_pattern(tiny_function)
        trace = tiny_function.trace(3, 999)
        result = ProfilingAnalyzer(DRAM_CXL_NVME).search_chain(pattern, trace)
        expected = [
            np.count_nonzero(result.placement == t) / trace.n_pages
            for t in DRAM_CXL_NVME.tier_ids
        ]
        assert result.tier_fractions == pytest.approx(expected)
        assert result.top_tier_fraction == result.tier_fractions[0]

    @pytest.mark.parametrize("memory", PRESETS + (DEFAULT_MEMORY_SYSTEM,))
    def test_matches_microvm_execute(self, memory, tiny_function):
        """Resident execution agrees with the full engine on any chain."""
        trace = tiny_function.trace(3, 999)
        placement = np.zeros(trace.n_pages, dtype=np.uint8)
        third = trace.n_pages // 3
        placement[third : 2 * third] = memory.tier_ids[1]
        placement[2 * third :] = memory.tier_ids[-1]
        vm = MicroVM(trace.n_pages, memory=memory, placement=placement)
        assert _chain_time_s(placement, trace, memory) == pytest.approx(
            vm.execute(trace).time_s, rel=1e-12
        )

    def test_out_of_range_rung_rejected(self, tiny_function):
        pattern = profiled_pattern(tiny_function)
        trace = tiny_function.trace(3, 999)
        seed = np.full(trace.n_pages, 5, dtype=np.uint8)
        with pytest.raises(AnalysisError, match="references tier 5"):
            ProfilingAnalyzer(DRAM_CXL_NVME).search_chain(
                pattern, trace, seed_placement=seed
            )


def _small_input_pattern(function, invocations=4, seed=3):
    """A pattern profiled on the smallest input only: pages the largest
    input touches look zero-access and start on the bottom tier."""
    vmm = VMM()
    damon = DamonProfiler(function.n_pages, rng=np.random.default_rng(seed))
    pattern = UnifiedAccessPattern(function.n_pages, convergence_window=3)
    for i in range(invocations):
        boot = vmm.boot_and_run(function, 0, seed + i)
        snap = damon.profile(boot.execution.epoch_records)
        if i:
            pattern.update(snap)
    return pattern


class TestMultiTierAnalyzer:
    """``ProfilingAnalyzer.search_chain`` over three-tier chains."""

    @pytest.fixture
    def pattern_and_trace(self, tiny_function):
        pattern = profiled_pattern(tiny_function)
        return tiny_function, pattern, tiny_function.trace(3, 999)

    def test_three_tier_beats_two_tier_cost(self, pattern_and_trace):
        function, pattern, trace = pattern_and_trace
        two = ProfilingAnalyzer().analyze(pattern, trace)
        three = ProfilingAnalyzer(DRAM_PMEM_NVME).search_chain(pattern, trace)
        # A strictly richer chain can only improve the optimum.
        assert three.cost <= two.cost + 1e-9

    def test_placement_within_bounds(self, pattern_and_trace):
        _, pattern, trace = pattern_and_trace
        result = ProfilingAnalyzer(DRAM_CXL_NVME).search_chain(pattern, trace)
        assert set(np.unique(result.placement)) <= set(DRAM_CXL_NVME.tier_ids)
        assert sum(result.tier_fractions) == pytest.approx(1.0)
        assert result.cost >= DRAM_CXL_NVME.optimal_normalized_cost - 1e-9
        assert result.slowdown >= 1.0

    def test_threshold_bounds_slowdown(self, pattern_and_trace):
        _, pattern, trace = pattern_and_trace
        analyzer = ProfilingAnalyzer(DRAM_PMEM_NVME)
        free = analyzer.search_chain(pattern, trace)
        capped = analyzer.search_chain(pattern, trace, slowdown_threshold=0.01)
        assert capped.slowdown - 1.0 <= 0.01 + 1e-9
        assert capped.cost >= free.cost - 1e-9

    def test_negative_threshold_rejected(self, pattern_and_trace):
        _, pattern, trace = pattern_and_trace
        with pytest.raises(AnalysisError, match="non-negative"):
            ProfilingAnalyzer(DRAM_PMEM_NVME).search_chain(
                pattern, trace, slowdown_threshold=-0.5
            )

    @pytest.mark.parametrize("threshold", [0.0, 0.01, 0.05, 0.30])
    @pytest.mark.parametrize("memory", PRESETS + (DEFAULT_MEMORY_SYSTEM,))
    def test_slowdown_bounded_by_start_or_budget(
        self, tiny_function, memory, threshold
    ):
        """The budget bounds the moves, not the start placement."""
        trace = tiny_function.trace(3, 999)
        analyzer = ProfilingAnalyzer(memory)
        for pattern in (
            profiled_pattern(tiny_function),
            _small_input_pattern(tiny_function),
        ):
            result = analyzer.search_chain(
                pattern, trace, slowdown_threshold=threshold
            )
            bound = max(result.base_slowdown, 1.0 + threshold)
            assert result.slowdown <= bound + 1e-12

    def test_zero_access_start_can_exceed_budget(self, tiny_function):
        """Regions that look unaccessed go to the bottom tier before the
        budget applies, so ``1 + threshold`` alone is no bound."""
        trace = tiny_function.trace(3, 999)
        result = ProfilingAnalyzer().search_chain(
            _small_input_pattern(tiny_function), trace, slowdown_threshold=0.0
        )
        assert result.moves == 0
        assert result.slowdown == result.base_slowdown > 1.0

    def test_hot_pages_stay_on_top_rung(self, memory_intensive_function):
        """A uniformly hot working set resists demotion even with three
        tiers available."""
        pattern = profiled_pattern(memory_intensive_function)
        trace = memory_intensive_function.trace(3, 999)
        result = ProfilingAnalyzer(DRAM_PMEM_NVME).search_chain(pattern, trace)
        assert result.top_tier_fraction > 0.1

    def test_mismatched_guest_rejected(self, tiny_function):
        pattern = UnifiedAccessPattern(128, convergence_window=2)
        with pytest.raises(AnalysisError):
            ProfilingAnalyzer(DRAM_CXL_NVME).search_chain(
                pattern, tiny_function.trace(0, 0)
            )
