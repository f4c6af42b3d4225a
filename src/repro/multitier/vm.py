"""Placement-evaluation VM for N-tier ladders.

Executes a trace against an N-tier page placement, charging each access
its rung's latency.  Restore machinery stays two-tier (the snapshot
format of Section V-D has exactly two files); this VM answers the
analysis question "what would this placement cost?".
"""

from __future__ import annotations

import numpy as np

from ..errors import VMError
from ..sim.timing import normalized_slowdown
from ..trace.events import InvocationTrace
from .system import TierLadder

__all__ = ["MultiTierVM"]


class MultiTierVM:
    """A resident guest with per-page rung assignment."""

    def __init__(
        self,
        n_pages: int,
        ladder: TierLadder,
        placement: np.ndarray | None = None,
    ) -> None:
        if n_pages <= 0:
            raise VMError("guest must have at least one page")
        self.n_pages = int(n_pages)
        self.ladder = ladder
        if placement is None:
            placement = np.zeros(self.n_pages, dtype=np.uint8)
        placement = np.asarray(placement, dtype=np.uint8)
        if placement.shape != (self.n_pages,):
            raise VMError("placement shape does not match guest")
        if placement.size and int(placement.max()) >= ladder.n_tiers:
            raise VMError(
                f"placement references tier {int(placement.max())}, ladder "
                f"has {ladder.n_tiers}"
            )
        self.placement = placement.copy()

    def tier_fractions(self) -> np.ndarray:
        """Share of guest memory on each rung."""
        counts = np.bincount(self.placement, minlength=self.ladder.n_tiers)
        return counts / self.n_pages

    def execute_time_s(self, trace: InvocationTrace) -> float:
        """End-to-end time of the trace under this placement."""
        if trace.n_pages != self.n_pages:
            raise VMError("trace and VM cover different guests")
        total = 0.0
        # One gather over the trace's page column, sliced per epoch.
        tiers_all = self.placement[trace.pages.astype(np.intp)]
        bounds = trace.ptr.tolist()
        for e, epoch in enumerate(trace.epochs):
            total += epoch.cpu_time_s
            if epoch.pages.size == 0:
                continue
            lat = self.ladder.access_latencies(
                epoch.random_fraction, epoch.store_fraction
            )
            per_tier = np.bincount(
                tiers_all[bounds[e]:bounds[e + 1]],
                weights=epoch.counts,
                minlength=self.ladder.n_tiers,
            )
            total += float((per_tier * lat).sum())
        return total

    def slowdown(self, trace: InvocationTrace) -> float:
        """Slowdown of this placement vs everything on rung 0."""
        base = MultiTierVM(self.n_pages, self.ladder).execute_time_s(trace)
        if base <= 0:
            raise VMError("trace has zero duration")
        return normalized_slowdown(self.execute_time_s(trace), base)
