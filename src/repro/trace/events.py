"""Access-trace data model.

The simulator never replays individual loads (a 1 GB guest would need
billions); instead each invocation is a handful of *epochs*, each holding a
sparse histogram of LLC-miss demand loads per page.  That is exactly the
granularity DAMON aggregates at, and enough to compute execution time under
any page placement: ``stall = sum(counts * latency(tier(page)))``.

A trace stores all of its epochs in one CSR (compressed sparse row)
layout: ``pages`` and ``counts`` are int32 columns holding every epoch's
histogram back to back, ``ptr`` (int64, one entry per epoch plus one)
marks where each epoch starts, and ``epoch_cpu_time_s`` /
``epoch_random_fraction`` / ``epoch_store_fraction`` hold the per-epoch
scalars.  :attr:`InvocationTrace.epochs` hands out zero-copy
:class:`AccessEpoch` views of those columns.  Page indices and per-page
counts outside the int32 range are rejected with a
:class:`~repro.errors.ConfigError`; every sum over ``counts`` accumulates
in int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable

import numpy as np

from .. import config
from ..errors import AddressSpaceError, ConfigError

__all__ = ["AccessEpoch", "InvocationTrace", "int32_column"]

_INT32 = np.iinfo(np.int32)


def int32_column(values: Any, what: str) -> np.ndarray:
    """``values`` as an int32 array.

    Raises :class:`ConfigError` instead of wrapping when any value lies
    outside the int32 range.  Arrays that already are int32 pass through
    without a copy.
    """
    arr = np.asarray(values)
    if arr.dtype == np.int32:
        return arr
    try:
        arr = np.asarray(arr, dtype=np.int64)
    except OverflowError as exc:
        raise ConfigError(f"{what} outside the int32 range") from exc
    if arr.size and (arr.min() < _INT32.min or arr.max() > _INT32.max):
        raise ConfigError(f"{what} outside the int32 range")
    return arr.astype(np.int32)


def _validate_epochs(
    pages: np.ndarray,
    counts: np.ndarray,
    ptr: np.ndarray,
    cpu_time_s: np.ndarray,
    random_fraction: np.ndarray,
    store_fraction: np.ndarray,
) -> None:
    """Every per-epoch check, vectorised over the whole CSR layout."""
    if pages.shape != counts.shape or pages.ndim != 1:
        raise ConfigError("pages and counts must be 1-D arrays of equal length")
    n_epochs = ptr.size - 1
    if (
        ptr.ndim != 1
        or n_epochs < 0
        or ptr[0] != 0
        or ptr[-1] != pages.size
        or np.any(np.diff(ptr) < 0)
    ):
        raise ConfigError("epoch pointer must run from 0 to len(pages)")
    for column in (cpu_time_s, random_fraction, store_fraction):
        if column.shape != (n_epochs,):
            raise ConfigError("per-epoch columns must hold one value per epoch")
    if pages.size:
        if pages.min() < 0:
            raise AddressSpaceError("negative page index in epoch")
        step_ok = pages[1:] > pages[:-1]
        # An epoch may restart anywhere: the step into each epoch's first
        # page is exempt from the strictly-increasing rule.
        starts = ptr[1:-1]
        step_ok[starts[(starts > 0) & (starts < pages.size)] - 1] = True
        if not step_ok.all():
            raise ConfigError("epoch pages must be strictly increasing")
        if counts.min() <= 0:
            raise ConfigError("epoch counts must be positive")
    if np.any(cpu_time_s < 0):
        raise ConfigError("cpu_time_s must be non-negative")
    if not np.all((random_fraction >= 0.0) & (random_fraction <= 1.0)):
        raise ConfigError("random_fraction must lie in [0, 1]")
    if not np.all((store_fraction >= 0.0) & (store_fraction <= 1.0)):
        raise ConfigError("store_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class AccessEpoch:
    """One time slice of an invocation.

    Attributes
    ----------
    cpu_time_s:
        Pure compute time of the slice (cycles not stalled on memory).
    pages:
        Sorted, unique guest-page indices touched during the slice (int32).
    counts:
        LLC-miss demand loads per page in ``pages`` (int32, same length).
    random_fraction:
        Fraction of the slice's accesses that stride unpredictably; slow
        tiers penalise random access (Section V-C).
    store_fraction:
        Fraction of the slice's accesses that are stores; the slow tier's
        store latency and write throughput are much worse than its reads.
    """

    cpu_time_s: float
    pages: np.ndarray
    counts: np.ndarray
    random_fraction: float = 0.0
    store_fraction: float = 0.0

    def __post_init__(self) -> None:
        pages = np.asarray(self.pages, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        _validate_epochs(
            pages,
            counts,
            np.asarray([0, pages.size], dtype=np.int64),
            np.asarray([self.cpu_time_s], dtype=np.float64),
            np.asarray([self.random_fraction], dtype=np.float64),
            np.asarray([self.store_fraction], dtype=np.float64),
        )
        object.__setattr__(self, "pages", int32_column(pages, "page indices"))
        object.__setattr__(self, "counts", int32_column(counts, "access counts"))

    @classmethod
    def _view(
        cls,
        cpu_time_s: float,
        pages: np.ndarray,
        counts: np.ndarray,
        random_fraction: float,
        store_fraction: float,
    ) -> "AccessEpoch":
        """An epoch over already-validated trace columns (no copy)."""
        epoch = object.__new__(cls)
        object.__setattr__(epoch, "cpu_time_s", cpu_time_s)
        object.__setattr__(epoch, "pages", pages)
        object.__setattr__(epoch, "counts", counts)
        object.__setattr__(epoch, "random_fraction", random_fraction)
        object.__setattr__(epoch, "store_fraction", store_fraction)
        return epoch

    @property
    def total_accesses(self) -> int:
        """Total LLC-miss loads in the slice."""
        return int(self.counts.sum(dtype=np.int64))

    @property
    def touched_pages(self) -> int:
        """Number of distinct pages touched in the slice."""
        return int(self.pages.size)


class _DerivedView(cached_property):  # type: ignore[type-arg]
    """A cached derived array whose bytes are reported when it is built.

    Trace caches watch their traces (:meth:`InvocationTrace.watch_growth`)
    so a view built after admission is charged to the cache's budget.
    """

    def __get__(self, instance: Any, owner: Any = None) -> Any:
        if instance is None:
            return self
        if self.attrname in instance.__dict__:
            return instance.__dict__[self.attrname]
        value = super().__get__(instance, owner)
        instance._grew(value.nbytes)
        return value


@dataclass(frozen=True, init=False, eq=False)
class InvocationTrace:
    """The complete memory behaviour of one function invocation.

    ``n_pages`` is the guest memory size in pages; epochs index into that
    space.  The epochs live in one CSR layout (see the module docstring):
    epoch ``e`` covers ``pages[ptr[e]:ptr[e + 1]]`` and
    ``counts[ptr[e]:ptr[e + 1]]``.  Build a trace either from
    :class:`AccessEpoch` objects (``InvocationTrace(n_pages, epochs)``)
    or straight from columns (:meth:`from_columns`).  Traces are
    immutable; derived views are cached.
    """

    n_pages: int
    pages: np.ndarray
    counts: np.ndarray
    ptr: np.ndarray
    epoch_cpu_time_s: np.ndarray
    epoch_random_fraction: np.ndarray
    epoch_store_fraction: np.ndarray
    label: str

    def __init__(
        self, n_pages: int, epochs: Iterable[AccessEpoch], label: str = ""
    ) -> None:
        epochs = tuple(epochs)
        empty = np.empty(0, dtype=np.int32)
        self._init_columns(
            n_pages,
            np.concatenate([empty, *(e.pages for e in epochs)]),
            np.concatenate([empty, *(e.counts for e in epochs)]),
            np.cumsum([0, *(e.pages.size for e in epochs)], dtype=np.int64),
            [e.cpu_time_s for e in epochs],
            [e.random_fraction for e in epochs],
            [e.store_fraction for e in epochs],
            label,
        )

    @classmethod
    def from_columns(
        cls,
        n_pages: int,
        *,
        pages: Any,
        counts: Any,
        ptr: Any,
        cpu_time_s: Any,
        random_fraction: Any,
        store_fraction: Any,
        label: str = "",
    ) -> "InvocationTrace":
        """Build a trace straight from its CSR columns (validated once).

        ``pages``/``counts`` that already are int32 are kept without a
        copy; anything else is range-checked and narrowed.
        """
        trace = cls.__new__(cls)
        trace._init_columns(n_pages, pages, counts, ptr, cpu_time_s,
                            random_fraction, store_fraction, label)
        return trace

    def _init_columns(
        self,
        n_pages: int,
        pages: Any,
        counts: Any,
        ptr: Any,
        cpu_time_s: Any,
        random_fraction: Any,
        store_fraction: Any,
        label: str,
    ) -> None:
        pages = int32_column(pages, "page indices")
        counts = int32_column(counts, "access counts")
        ptr = np.asarray(ptr, dtype=np.int64)
        cpu_time_s = np.asarray(cpu_time_s, dtype=np.float64)
        random_fraction = np.asarray(random_fraction, dtype=np.float64)
        store_fraction = np.asarray(store_fraction, dtype=np.float64)
        _validate_epochs(pages, counts, ptr, cpu_time_s, random_fraction,
                         store_fraction)
        if n_pages <= 0:
            raise AddressSpaceError("trace must cover at least one page")
        if pages.size and pages.max() >= n_pages:
            raise AddressSpaceError(
                f"epoch touches page {int(pages.max())} outside a "
                f"{n_pages}-page guest"
            )
        fields = {
            "n_pages": int(n_pages),
            "pages": pages,
            "counts": counts,
            "ptr": ptr,
            "epoch_cpu_time_s": cpu_time_s,
            "epoch_random_fraction": random_fraction,
            "epoch_store_fraction": store_fraction,
            "label": label,
            "_listeners": [],
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    # -- epochs as views ----------------------------------------------------

    @property
    def n_epochs(self) -> int:
        """Number of time slices."""
        return int(self.ptr.size) - 1

    @property
    def epochs(self) -> tuple[AccessEpoch, ...]:
        """Zero-copy :class:`AccessEpoch` views, one per time slice."""
        bounds = self.ptr.tolist()
        cpu = self.epoch_cpu_time_s.tolist()
        rf = self.epoch_random_fraction.tolist()
        sf = self.epoch_store_fraction.tolist()
        return tuple(
            AccessEpoch._view(
                cpu[e],
                self.pages[bounds[e]:bounds[e + 1]],
                self.counts[bounds[e]:bounds[e + 1]],
                rf[e],
                sf[e],
            )
            for e in range(self.n_epochs)
        )

    # -- retained memory ----------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Bytes this trace retains: its columns plus every built view."""
        return sum(
            value.nbytes
            for value in self.__dict__.values()
            if isinstance(value, np.ndarray)
        )

    def watch_growth(
        self, listener: Callable[["InvocationTrace", int], None]
    ) -> None:
        """Call ``listener(trace, nbytes)`` whenever a derived view is built."""
        self._listeners.append(listener)

    def unwatch_growth(
        self, listener: Callable[["InvocationTrace", int], None]
    ) -> None:
        """Stop reporting view growth to ``listener``."""
        self._listeners.remove(listener)

    def _grew(self, nbytes: int) -> None:
        for listener in tuple(self._listeners):
            listener(self, nbytes)

    # -- aggregate views ----------------------------------------------------

    @_DerivedView
    def epoch_totals(self) -> np.ndarray:
        """Per-epoch total access counts (int64; empty epochs give 0)."""
        cum = np.zeros(self.counts.size + 1, dtype=np.int64)
        np.cumsum(self.counts, dtype=np.int64, out=cum[1:])
        totals: np.ndarray = cum[self.ptr[1:]] - cum[self.ptr[:-1]]
        return totals

    @_DerivedView
    def histogram(self) -> np.ndarray:
        """Dense per-page access-count histogram over the whole invocation."""
        hist = np.zeros(self.n_pages, dtype=np.int64)
        bounds = self.ptr.tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            hist[self.pages[lo:hi]] += self.counts[lo:hi]
        return hist

    def first_accesses(
        self, page: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per access: its epoch, its page as an intp index, and whether
        it is that page's first access.  A caller that already holds
        ``pages`` cast to intp passes it as ``page`` to save the copy.

        O(n) without a sort: every access scatters its epoch into a
        per-page minimum with ``np.minimum.at``, and since a page occurs
        at most once per epoch, an access is its page's first exactly
        where its epoch is that minimum.  Epochs use the smallest unsigned
        dtype that holds ``n_epochs`` (one byte for most traces), which
        keeps the per-page array small and cache-resident.  Built on
        every call, not cached.
        """
        n_epochs = self.n_epochs
        dtype = np.min_scalar_type(n_epochs)
        epoch = np.arange(n_epochs, dtype=dtype).repeat(
            self.ptr[1:] - self.ptr[:-1]
        )
        if page is None:
            page = self.pages.astype(np.intp)
        first_epoch = np.full(self.n_pages, n_epochs, dtype=dtype)
        np.minimum.at(first_epoch, page, epoch)
        return epoch, page, first_epoch[page] == epoch

    @property
    def first_touch(self) -> np.ndarray:
        """First touch of every distinct page, as one ``(2, U)`` int32 array.

        Row 0 holds the distinct pages in ascending order (the working
        set); row 1 the epoch of each page's first touch.  Residency is
        sticky, so a page can demand-fault only there.  Built from
        :meth:`first_accesses` on every access, not cached: executing a
        trace retains nothing beyond its columns.
        """
        epoch, page, first = self.first_accesses()
        # Ascending page order without a sort: scatter through the pages.
        first_epoch = np.full(self.n_pages, -1, dtype=np.int32)
        first_epoch[page[first]] = epoch[first]
        distinct = np.flatnonzero(first_epoch >= 0)
        out = np.empty((2, distinct.size), dtype=np.int32)
        out[0] = distinct
        out[1] = first_epoch[distinct]
        return out

    @property
    def working_set(self) -> np.ndarray:
        """Sorted indices of pages accessed at least once (the paper's WS)."""
        ws: np.ndarray = self.first_touch[0]
        return ws

    @property
    def working_set_pages(self) -> int:
        """Working-set size in pages."""
        return int(self.working_set.size)

    @property
    def working_set_bytes(self) -> int:
        """Working-set size in bytes."""
        return self.working_set_pages * config.PAGE_SIZE

    @property
    def total_accesses(self) -> int:
        """Total LLC-miss loads across all epochs."""
        return int(self.counts.sum(dtype=np.int64))

    @property
    def cpu_time_s(self) -> float:
        """Total pure-compute time across all epochs."""
        # A sequential left fold, the same additions as summing epoch by
        # epoch.
        return float(sum(self.epoch_cpu_time_s.tolist()))

    @cached_property
    def mean_random_fraction(self) -> float:
        """Access-weighted mean of the epochs' random fractions."""
        total = self.total_accesses
        if total == 0:
            return 0.0
        weighted = self.epoch_random_fraction * self.epoch_totals
        return float(sum(weighted.tolist())) / total

    def nominal_time_s(self, fast_latency_s: float) -> float:
        """End-to-end time with every page in a tier of the given latency
        and no page faults (the all-DRAM warm reference)."""
        return self.cpu_time_s + self.total_accesses * fast_latency_s

    def first_touch_order(self) -> np.ndarray:
        """Pages in order of first touch (drives demand-fault sequencing).

        Pages first touched in the same epoch keep ascending order, as
        within an epoch's histogram.
        """
        pages, epoch = self.first_touch
        out: np.ndarray = pages[np.argsort(epoch, kind="stable")]
        return out
