"""Tests for the TCO-vs-slowdown frontier experiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analysis import ProfilingAnalyzer
from repro.core.cost import normalized_cost_tiers
from repro.experiments import tco_frontier
from repro.memsim.tiers import Tier

from test_core_analysis import profiled_pattern


@pytest.fixture(scope="module")
def result():
    return tco_frontier.run(
        function_names=["float_operation"],
        slowdown_thresholds=(0.05, 0.30),
    )


class TestFrontierShape:
    def test_dram_only_endpoint_normalizes_to_one(self, result):
        assert result.dram_only_cost == 1.0
        anchor = result.table.rows[0]
        assert anchor[0] == "dram-only"
        assert anchor[2] == 1.0

    def test_one_point_per_config_and_budget(self, result):
        configs = [name for name, _ in tco_frontier.default_configs()]
        assert len(result.points) == len(configs) * 2
        seen = {(p.config, p.threshold) for p in result.points}
        assert len(seen) == len(result.points)

    def test_slowdowns_respect_budget(self, result):
        for p in result.points:
            assert p.slowdown <= 1.0 + p.threshold + 1e-9

    def test_costs_between_floor_and_dram(self, result):
        for p in result.points:
            assert 0.0 < p.cost <= 1.0 + 1e-9


class TestFrontierClaims:
    def test_compressed_never_worse_at_fixed_budget(self, result):
        """Seeded search: richer chains are monotone point-by-point."""
        two = {
            p.threshold: p.cost
            for p in result.points
            if p.config == tco_frontier.TWO_TIER_NAME
        }
        for p in result.points:
            if p.config == tco_frontier.TWO_TIER_NAME:
                continue
            assert p.cost <= two[p.threshold] + 1e-9

    def test_two_tier_placement_seeds_every_chain(self, tiny_function):
        """A two-tier placement seeds every swept chain as it is: its ids
        0 and 1 are each chain's fast and slow ends, and the search never
        ends costlier than that seed."""
        pattern = profiled_pattern(tiny_function)
        trace = tiny_function.trace(3, 999)
        two = ProfilingAnalyzer().analyze(pattern, trace)
        assert two.zero_pages > 0 and two.slow_fraction > 0
        for name, memory in tco_frontier.default_configs():
            ids = memory.tier_ids
            assert (ids[0], ids[-1]) == (int(Tier.FAST), int(Tier.SLOW))
            result = ProfilingAnalyzer(memory).search_chain(
                pattern, trace, seed_placement=two.placement
            )
            seed_fractions = [np.mean(two.placement == t) for t in ids]
            seed_cost = normalized_cost_tiers(
                result.base_slowdown, seed_fractions, memory
            )
            assert result.cost <= seed_cost + 1e-12
            if name == tco_frontier.TWO_TIER_NAME:
                assert result.base_slowdown == pytest.approx(
                    two.expected_slowdown, rel=1e-9
                )

    def test_best_compressed_beats_best_two_tier(self, result):
        assert result.best_compressed_cost < result.best_two_tier_cost
        assert result.compressed_beats_two_tier

    def test_best_cost_unknown_config_raises(self, result):
        with pytest.raises(KeyError):
            result.best_cost("nope")


class TestDeterminism:
    def test_repeat_run_is_identical(self, result):
        again = tco_frontier.run(
            function_names=["float_operation"],
            slowdown_thresholds=(0.05, 0.30),
        )
        assert [(p.config, p.threshold, p.cost, p.slowdown) for p in again.points] == [
            (p.config, p.threshold, p.cost, p.slowdown) for p in result.points
        ]
