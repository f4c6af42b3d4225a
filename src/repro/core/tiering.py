"""Snapshot tiering (Section V-D) and region merging (Section V-F).

Partitions the single-tier snapshot into the per-tier files plus the
memory layout file.  The layout builder already merges adjacent same-tier
regions (bins merging); access-count merging happened earlier, when the
unified pattern produced its regions.

On an N-tier memory system (software compressed tiers,
:mod:`repro.memsim.compressed`) the two-tier analysis is first *spread*
across the chain: each offloaded bin is re-assigned to the middle or slow
tier that minimises the Equation-1 cost estimate, so snapshot bins land
on DRAM / compressed-DRAM / PMEM as the chain offers.  Without middle
tiers the spread is the identity and the classic two-tier snapshot is
produced byte-identically.
"""

from __future__ import annotations

import numpy as np

from ..errors import SnapshotError
from ..memsim.tiers import MemorySystem, Tier
from ..vm.layout import MemoryLayout
from ..vm.snapshot import SingleTierSnapshot, TieredSnapshot
from .analysis import AnalysisResult

__all__ = ["build_tiered_snapshot", "spread_bins_across_tiers"]


def spread_bins_across_tiers(
    analysis: AnalysisResult, memory: MemorySystem
) -> np.ndarray:
    """Re-assign offloaded bins across the memory system's tier chain.

    Starts from the two-tier placement (everything offloaded sits on the
    slow tier) and hill-climbs single-bin moves onto middle tiers using
    an Equation-1 *estimate*: each bin's measured incremental slowdown is
    scaled by the candidate tier's latency position between the fast and
    slow tiers, and its price share moves to the candidate's price.  The
    estimate anchors exactly at the measured two-tier point (all bins on
    the slow tier reproduce ``analysis.expected_slowdown`` and
    ``analysis.cost``-shaped terms), so a move is applied only when it
    improves on the measured configuration's estimate.  The measured
    N-tier search (per-move executions) is
    :meth:`repro.core.analysis.ProfilingAnalyzer.search_chain`; this
    spread is the cheap snapshot-build-time mapping.

    Returns a new placement array; without middle tiers it is an
    unmodified copy.
    """
    placement = analysis.placement.copy()
    if not memory.middle:
        return placement
    lat = memory.access_latency_by_id()
    lat_fast = float(lat[int(Tier.FAST)])
    lat_slow = float(lat[int(Tier.SLOW)])
    span = max(lat_slow - lat_fast, 1e-18)
    candidates = (int(Tier.SLOW), *range(2, 2 + len(memory.middle)))
    price = {t: memory.price_relative(t) for t in candidates}
    # Latency position of each candidate between fast (0) and slow (1):
    # the share of a bin's measured slow-tier slowdown it retains there.
    scale = {
        t: min(max((float(lat[t]) - lat_fast) / span, 0.0), 1.0)
        for t in candidates
    }

    bins = analysis.selected_bins
    if not bins:
        return placement
    delta = {b.index: max(float(b.incremental_slowdown), 0.0) for b in bins}
    frac = {b.index: b.n_pages / analysis.n_pages for b in bins}
    assign = {b.index: int(Tier.SLOW) for b in bins}

    # Price of everything *not* being moved (fast pages plus zero-page
    # offload already resting on the slow tier).
    fixed_price = 0.0
    counts = np.bincount(placement, minlength=2)
    moved_pages = sum(b.n_pages for b in bins)
    fixed_fast = (int(counts[int(Tier.FAST)])) / analysis.n_pages
    fixed_slow = (
        int(counts[int(Tier.SLOW)]) - moved_pages
    ) / analysis.n_pages
    fixed_price = fixed_fast * memory.price_relative(Tier.FAST)
    fixed_price += fixed_slow * memory.price_relative(Tier.SLOW)

    def estimate(assignment: dict[int, int]) -> float:
        sd = analysis.expected_slowdown - sum(
            delta[i] * (1.0 - scale[t]) for i, t in assignment.items()
        )
        total_price = fixed_price + sum(
            frac[i] * price[t] for i, t in assignment.items()
        )
        return max(sd, 1.0) * total_price

    current = estimate(assign)
    for _ in range(len(bins) * len(candidates)):
        best: tuple[float, int, int] | None = None
        for b in bins:
            for t in candidates:
                if assign[b.index] == t:
                    continue
                trial = dict(assign)
                trial[b.index] = t
                cost = estimate(trial)
                if cost < current - 1e-12 and (best is None or cost < best[0]):
                    best = (cost, b.index, t)
        if best is None:
            break
        current, idx, tier = best
        assign[idx] = tier
    for b in bins:
        tier = assign[b.index]
        if tier == int(Tier.SLOW):
            continue
        for region in b.regions:
            placement[region.start_page : region.end_page] = tier
    return placement


def build_tiered_snapshot(
    base: SingleTierSnapshot,
    analysis: AnalysisResult,
    *,
    source_inputs: tuple[int, ...] = (),
    memory: MemorySystem | None = None,
) -> TieredSnapshot:
    """Create the tiered snapshot for an analysis result.

    Copies each region serially into its tier's file (modelled by the
    layout's file offsets) and records the per-region metadata the restore
    path walks.  When ``memory`` has middle tiers, offloaded bins are
    first spread across the chain (:func:`spread_bins_across_tiers`);
    otherwise the classic two-tier layout is built verbatim.
    """
    if base.n_pages != analysis.n_pages:
        raise SnapshotError(
            f"analysis covers {analysis.n_pages} pages, snapshot has "
            f"{base.n_pages}"
        )
    if memory is not None and memory.middle:
        placement = spread_bins_across_tiers(analysis, memory)
    else:
        placement = analysis.placement
    layout = MemoryLayout.from_placement(placement)
    # The per-tier files are physical copies of the single-tier file, so
    # at-rest damage to one snapshot never propagates to the other (the
    # lazy-restore fallback depends on this).
    return TieredSnapshot(
        base=base.copy(),
        layout=layout,
        expected_slowdown=analysis.expected_slowdown,
        source_inputs=tuple(source_inputs),
    )
