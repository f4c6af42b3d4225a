"""DAMON (Data Access MONitor) simulator.

Implements DAMON's actual algorithm over simulated execution epochs:

* The address space is partitioned into regions.  Every *sampling
  interval* DAMON picks one random page per region, clears its accessed
  bit, and checks it one interval later; a set bit increments the region's
  ``nr_accesses``.
* Every *aggregation interval* the counters are emitted and reset, and the
  region set adapts: adjacent regions with similar ``nr_accesses`` merge,
  and regions are randomly split in two (subject to a minimum region size
  and a maximum region count).

We vectorise the inner loop: for an epoch of duration ``D`` containing
``n = D / sampling_interval`` checks, the number of positive checks in a
region is ``Binomial(n, p)`` where ``p`` is the mean, over the region's
pages, of the probability that a page is accessed within one sampling
interval (``1 - exp(-rate * interval)``).  This reproduces both DAMON's
estimation error (sparse accesses are under-observed — which is exactly
why TOSS's "zero-accessed" offloading is safe but not free) and its
region-granularity artefacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import config
from ..errors import ProfilingError
from ..regions import Region
from ..vm.microvm import EpochRecord

__all__ = ["DamonConfig", "DamonSnapshot", "DamonProfiler"]


@dataclass(frozen=True)
class DamonConfig:
    """DAMON tuning knobs (paper values in Section VI-A)."""

    sampling_interval_s: float = config.DAMON_SAMPLING_INTERVAL_S
    min_region_pages: int = config.DAMON_MIN_REGION_BYTES // config.PAGE_SIZE
    min_nr_regions: int = 10
    max_nr_regions: int = 1000
    merge_threshold: float = 0.1
    """Adjacent regions merge when their nr_accesses differ by at most this
    fraction of the hotter of the pair (with a one-observation floor)."""

    access_bit_scale: float = config.DAMON_ACCESS_BIT_SCALE
    """Touches per trace count (accessed bits are set by cache hits too)."""

    def __post_init__(self) -> None:
        if self.sampling_interval_s <= 0:
            raise ProfilingError("sampling interval must be positive")
        if self.min_region_pages < 1:
            raise ProfilingError("minimum region must be at least one page")
        if not 1 <= self.min_nr_regions <= self.max_nr_regions:
            raise ProfilingError("need 1 <= min_nr_regions <= max_nr_regions")


@dataclass(frozen=True)
class DamonSnapshot:
    """One invocation's aggregated DAMON output (a "DAMON file").

    ``regions`` partition the guest; each region's ``value`` is the total
    ``nr_accesses`` observed for it across the invocation's aggregation
    windows, and ``samples`` is the total number of checks taken, so
    ``value / samples`` is an access-probability estimate.
    """

    n_pages: int
    regions: tuple[Region, ...]
    samples: int

    def page_values(self) -> np.ndarray:
        """Expand to a dense per-page observed-access array."""
        if self.regions and self._is_exact_partition():
            sizes = np.fromiter(
                (r.n_pages for r in self.regions),
                dtype=np.int64,
                count=len(self.regions),
            )
            values = np.fromiter(
                (r.value for r in self.regions),
                dtype=np.float64,
                count=len(self.regions),
            )
            return np.repeat(values, sizes)
        out = np.zeros(self.n_pages, dtype=np.float64)
        for region in self.regions:
            out[region.start_page : region.end_page] = region.value
        return out

    def _is_exact_partition(self) -> bool:
        """Whether regions tile [0, n_pages) contiguously (the profiler
        always emits such snapshots; hand-built ones may not)."""
        cursor = 0
        for region in self.regions:
            if region.start_page != cursor:
                return False
            cursor += region.n_pages
        return cursor == self.n_pages

    @property
    def observed_pages(self) -> int:
        """Pages inside regions with a non-zero observation."""
        return sum(r.n_pages for r in self.regions if r.value > 0)


class DamonProfiler:
    """Stateful DAMON instance attached to one guest address space."""

    def __init__(
        self,
        n_pages: int,
        cfg: DamonConfig = DamonConfig(),
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        if n_pages <= 0:
            raise ProfilingError("guest must have at least one page")
        self.n_pages = int(n_pages)
        self.cfg = cfg
        self.rng = rng if rng is not None else np.random.default_rng(config.DEFAULT_SEED)
        # Region state as parallel arrays of boundaries: starts[i]..starts[i+1].
        self._bounds = self._initial_bounds()

    def _initial_bounds(self) -> np.ndarray:
        n = min(
            self.cfg.min_nr_regions,
            max(1, self.n_pages // self.cfg.min_region_pages),
        )
        bounds = np.linspace(0, self.n_pages, n + 1).astype(np.int64)
        return np.unique(bounds)

    @property
    def n_regions(self) -> int:
        """Current number of monitoring regions."""
        return len(self._bounds) - 1

    def region_list(self, values: np.ndarray | None = None) -> list[Region]:
        """Current regions, optionally annotated with values."""
        starts = self._bounds[:-1].tolist()
        sizes = np.diff(self._bounds).tolist()
        if values is None:
            return [Region(s, n, 0.0) for s, n in zip(starts, sizes)]
        annotated = np.asarray(values, dtype=np.float64).tolist()
        return [
            Region(s, n, v) for s, n, v in zip(starts, sizes, annotated)
        ]

    # -- profiling ------------------------------------------------------------

    def profile(self, epochs: tuple[EpochRecord, ...] | list[EpochRecord]) -> DamonSnapshot:
        """Observe one executed invocation; returns its DAMON file.

        Each epoch is treated as one aggregation window; region adaptation
        (merge then split) runs after every window, as in the kernel.
        """
        if not epochs:
            raise ProfilingError("cannot profile an empty invocation")
        total = np.zeros(self.n_pages, dtype=np.float64)
        total_samples = 0
        for epoch in epochs:
            values, samples = self._aggregate(epoch)
            # Spread this window's counters onto pages before adapting, so
            # the output is independent of later boundary moves.  Each page
            # receives exactly its region's value, so the repeat-add is
            # bit-identical to the per-region slice adds it replaces.
            total += np.repeat(values, np.diff(self._bounds))
            total_samples += samples
            self._adapt(values, samples)
        # Re-encode the accumulated per-page observations as regions using
        # the final boundaries (what the exported DAMON file contains).
        # ``total`` holds sums of integer binomial counts (exact in
        # float64), so the segment sums — and hence the means — match the
        # per-slice ``.mean()`` loop exactly.
        sizes = np.diff(self._bounds)
        means = np.add.reduceat(total, self._bounds[:-1]) / sizes
        regions = [
            Region(s, n, v)
            for s, n, v in zip(
                self._bounds[:-1].tolist(), sizes.tolist(), means.tolist()
            )
        ]
        return DamonSnapshot(
            n_pages=self.n_pages, regions=tuple(regions), samples=total_samples
        )

    # -- internals ----------------------------------------------------------------

    def _aggregate(self, epoch: EpochRecord) -> tuple[np.ndarray, int]:
        """One aggregation window: per-region nr_accesses estimates."""
        duration = max(epoch.duration_s, self.cfg.sampling_interval_s)
        samples = max(1, int(round(duration / self.cfg.sampling_interval_s)))
        # Per-page probability of being seen accessed in one interval,
        # computed in-place: each step is the same IEEE operation sequence
        # as the old expression chain (``a*(-b)`` is an exact sign flip of
        # ``(-a)*b``), just without the intermediate arrays.
        sizes = np.diff(self._bounds).astype(np.float64)
        if epoch.pages.size:
            p_page = epoch.counts * self.cfg.access_bit_scale
            np.divide(p_page, duration, out=p_page)
            np.multiply(p_page, -self.cfg.sampling_interval_s, out=p_page)
            np.expm1(p_page, out=p_page)
            np.negative(p_page, out=p_page)
            # Epoch pages are validated monotonic, so region membership is
            # a boundary search over the *bounds* (O(R log P)) instead of
            # a per-page search (O(P log R)), and the per-region sums are
            # segment reductions.  Both bincount and reduceat accumulate
            # in page order, so the sums are bit-identical.
            pos = np.searchsorted(epoch.pages, self._bounds)
            nonempty = pos[:-1] < pos[1:]
            p_sum = np.zeros(self.n_regions)
            if nonempty.any():
                # Empty regions are skipped: each reduceat segment then
                # runs to the next non-empty start, which coincides with
                # the true segment end because the skipped regions
                # contribute no pages.
                p_sum[nonempty] = np.add.reduceat(p_page, pos[:-1][nonempty])
        else:
            p_sum = np.zeros(self.n_regions)
        p_region = np.clip(p_sum / sizes, 0.0, 1.0)
        values = self.rng.binomial(samples, p_region).astype(np.float64)
        return values, samples

    def _adapt(self, values: np.ndarray, samples: int) -> None:
        """DAMON's region adaptation: merge similar neighbours, then split.

        The merge test is relative to the hotter of the two neighbours
        (with a one-observation floor), so a cold-but-nonzero region next
        to a truly idle one keeps its boundary even when another part of
        the address space is orders of magnitude hotter.
        """
        # Scalar work on Python floats/ints: the merge recurrence is
        # inherently sequential (each decision reads the previous merge's
        # propagated value), and Python-native arithmetic is IEEE-identical
        # to the numpy-scalar loop it replaces while being ~10x faster.
        bounds = self._bounds.tolist()
        vals = values.tolist()
        merge_threshold = self.cfg.merge_threshold
        # Merge pass: drop interior boundaries between similar regions.
        keep = [0]
        for i in range(1, len(bounds) - 1):
            left = vals[i - 1]
            right = vals[i]
            pair_scale = left if left > right else right
            threshold = max(1.0, merge_threshold * pair_scale)
            if abs(right - left) > threshold:
                keep.append(i)
            else:
                # Region i merges into i-1; propagate the weighted value so
                # chains of similar regions merge transitively.
                left_pages = bounds[i] - bounds[keep[-1]]
                right_pages = bounds[i + 1] - bounds[i]
                vals[i] = (left * left_pages + right * right_pages) / (
                    left_pages + right_pages
                )
        keep.append(len(bounds) - 1)
        merged = [bounds[k] for k in keep]

        # Split pass: halve regions at a random point while under the cap.
        min_pages = self.cfg.min_region_pages
        rng = self.rng
        new_bounds = [merged[0]]
        budget = self.cfg.max_nr_regions - (len(merged) - 1)
        for i in range(len(merged) - 1):
            start, end = merged[i], merged[i + 1]
            size = end - start
            if budget > 0 and size >= 2 * min_pages:
                lo = start + min_pages
                hi = end - min_pages
                cut = int(rng.integers(lo, hi + 1)) if hi >= lo else None
                if cut is not None and start < cut < end:
                    new_bounds.append(cut)
                    budget -= 1
            new_bounds.append(end)
        # ``new_bounds`` is strictly increasing by construction (merged
        # bounds keep their order and every cut is strictly interior), so
        # the ``np.unique`` this used to pass through was an identity —
        # skip its sort/hash entirely.
        self._bounds = np.asarray(new_bounds, dtype=np.int64)

    def reset(self) -> None:
        """Forget adapted regions (fresh attach)."""
        self._bounds = self._initial_bounds()
