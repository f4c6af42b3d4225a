"""Tests for the access-trace data model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.errors import AddressSpaceError, ConfigError
from repro.trace.events import AccessEpoch, InvocationTrace

from conftest import make_trace


class TestAccessEpoch:
    def test_totals(self):
        e = AccessEpoch(0.1, np.array([1, 5]), np.array([10, 20]))
        assert e.total_accesses == 30
        assert e.touched_pages == 2

    def test_empty_epoch_allowed(self):
        e = AccessEpoch(0.1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert e.total_accesses == 0

    def test_unsorted_pages_rejected(self):
        with pytest.raises(ConfigError):
            AccessEpoch(0.1, np.array([5, 1]), np.array([1, 1]))

    def test_duplicate_pages_rejected(self):
        with pytest.raises(ConfigError):
            AccessEpoch(0.1, np.array([3, 3]), np.array([1, 1]))

    def test_zero_counts_rejected(self):
        with pytest.raises(ConfigError):
            AccessEpoch(0.1, np.array([3]), np.array([0]))

    def test_negative_page_rejected(self):
        with pytest.raises(AddressSpaceError):
            AccessEpoch(0.1, np.array([-1]), np.array([1]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            AccessEpoch(0.1, np.array([1, 2]), np.array([1]))

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            AccessEpoch(0.1, np.array([1]), np.array([1]), random_fraction=1.5)
        with pytest.raises(ConfigError):
            AccessEpoch(0.1, np.array([1]), np.array([1]), store_fraction=-0.1)


class TestInvocationTrace:
    def test_histogram_sums_epochs(self):
        trace = make_trace(n_epochs=3, pages=(0, 1), counts=(5, 7))
        assert trace.histogram[0] == 15 and trace.histogram[1] == 21
        assert trace.total_accesses == 36

    def test_working_set(self):
        trace = make_trace(pages=(0, 2, 9), counts=(1, 1, 1))
        np.testing.assert_array_equal(trace.working_set, [0, 2, 9])
        assert trace.working_set_pages == 3
        assert trace.working_set_bytes == 3 * config.PAGE_SIZE

    def test_cpu_time_sums(self):
        trace = make_trace(cpu_time_s=0.03, n_epochs=3)
        assert trace.cpu_time_s == pytest.approx(0.03)

    def test_out_of_range_epoch_rejected(self):
        with pytest.raises(AddressSpaceError):
            make_trace(n_pages=10, pages=(0, 10), counts=(1, 1))

    def test_nominal_time(self):
        trace = make_trace(pages=(0,), counts=(1000,), cpu_time_s=0.01)
        t = trace.nominal_time_s(80e-9)
        assert t == pytest.approx(0.01 + 1000 * 80e-9)

    def test_first_touch_order(self):
        e1 = AccessEpoch(0.1, np.array([5, 9]), np.array([1, 1]))
        e2 = AccessEpoch(0.1, np.array([2, 5]), np.array([1, 1]))
        trace = InvocationTrace(n_pages=16, epochs=(e1, e2))
        np.testing.assert_array_equal(trace.first_touch_order(), [5, 9, 2])

    def test_mean_random_fraction_weighted(self):
        e1 = AccessEpoch(0.1, np.array([0]), np.array([30]), random_fraction=1.0)
        e2 = AccessEpoch(0.1, np.array([0]), np.array([10]), random_fraction=0.0)
        trace = InvocationTrace(n_pages=4, epochs=(e1, e2))
        assert trace.mean_random_fraction == pytest.approx(0.75)

    def test_mean_random_fraction_empty(self):
        e = AccessEpoch(0.1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        trace = InvocationTrace(n_pages=4, epochs=(e,))
        assert trace.mean_random_fraction == 0.0


def _first_touch_order_reference(trace):
    """The original per-page loop, kept as the reference."""
    seen: set[int] = set()
    order: list[int] = []
    for epoch in trace.epochs:
        for page in epoch.pages.tolist():
            if page not in seen:
                seen.add(page)
                order.append(page)
    return np.asarray(order, dtype=np.int64)


def _first_touch_sorting_reference(trace):
    """First touches by sorting (np.unique), as first_touch once did."""
    distinct, first_idx = np.unique(trace.pages, return_index=True)
    out = np.empty((2, distinct.size), dtype=np.int32)
    out[0] = distinct
    out[1] = np.searchsorted(trace.ptr, first_idx, side="right") - 1
    return out


def _assert_first_touch_matches(trace):
    got = trace.first_touch
    want = _first_touch_sorting_reference(trace)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


class TestFirstTouch:
    def test_suite_traces_match_sorting_reference(self):
        """Every input of every suite and extended-suite function."""
        from repro.functions import EXTENDED_SUITE, SUITE

        for function in SUITE + EXTENDED_SUITE:
            for input_index in range(4):
                _assert_first_touch_matches(function.trace(input_index, 0))

    @given(
        st.integers(min_value=1, max_value=64),
        st.lists(
            st.lists(st.integers(min_value=0, max_value=63), max_size=20),
            max_size=10,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_csr_traces_match_sorting_reference(self, n_pages, epochs):
        pages = [sorted({p % n_pages for p in epoch}) for epoch in epochs]
        flat = [p for epoch in pages for p in epoch]
        trace = InvocationTrace.from_columns(
            n_pages,
            pages=np.asarray(flat, dtype=np.int64),
            counts=np.ones(len(flat), dtype=np.int64),
            ptr=np.cumsum([0, *(len(e) for e in pages)]),
            cpu_time_s=np.full(len(pages), 0.01),
            random_fraction=np.zeros(len(pages)),
            store_fraction=np.zeros(len(pages)),
        )
        _assert_first_touch_matches(trace)


class TestColumnarLayout:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_first_touch_order_matches_reference_loop(self, tiny_function, seed):
        trace = tiny_function.trace(seed % 4, seed)
        assert trace.n_epochs > 1
        np.testing.assert_array_equal(
            trace.first_touch_order(), _first_touch_order_reference(trace)
        )

    def test_first_touch_columns(self):
        e1 = AccessEpoch(0.1, np.array([5, 9]), np.array([1, 1]))
        e2 = AccessEpoch(0.1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        e3 = AccessEpoch(0.1, np.array([2, 5, 11]), np.array([1, 1, 1]))
        trace = InvocationTrace(n_pages=16, epochs=(e1, e2, e3))
        assert trace.first_touch.dtype == np.int32
        np.testing.assert_array_equal(trace.first_touch, [[2, 5, 9, 11], [2, 0, 0, 2]])
        np.testing.assert_array_equal(trace.working_set, [2, 5, 9, 11])
        np.testing.assert_array_equal(trace.first_touch_order(), [5, 9, 2, 11])

    def test_epochs_are_zero_copy_views(self, tiny_function):
        trace = tiny_function.trace(1, 4)
        assert trace.pages.dtype == np.int32 and trace.counts.dtype == np.int32
        assert trace.ptr.dtype == np.int64
        for e, epoch in enumerate(trace.epochs):
            lo, hi = trace.ptr[e], trace.ptr[e + 1]
            assert np.shares_memory(epoch.pages, trace.pages)
            assert np.shares_memory(epoch.counts, trace.counts)
            np.testing.assert_array_equal(epoch.pages, trace.pages[lo:hi])
            assert epoch.cpu_time_s == trace.epoch_cpu_time_s[e]
        assert trace.histogram.sum() == trace.total_accesses

    def test_epoch_built_trace_equals_column_built_trace(self):
        trace = make_trace(n_epochs=3, store_fraction=0.5, random_fraction=0.25)
        again = InvocationTrace.from_columns(
            trace.n_pages,
            pages=trace.pages,
            counts=trace.counts,
            ptr=trace.ptr,
            cpu_time_s=trace.epoch_cpu_time_s,
            random_fraction=trace.epoch_random_fraction,
            store_fraction=trace.epoch_store_fraction,
        )
        assert again.pages is trace.pages  # int32 columns are not copied
        assert again.cpu_time_s == trace.cpu_time_s
        assert again.total_accesses == trace.total_accesses
        np.testing.assert_array_equal(again.epoch_totals, [130, 130, 130])

    def test_nbytes_counts_columns_and_built_views(self):
        trace = make_trace(n_epochs=2)
        columns = sum(
            getattr(trace, name).nbytes
            for name in ("pages", "counts", "ptr", "epoch_cpu_time_s",
                         "epoch_random_fraction", "epoch_store_fraction")
        )
        assert trace.nbytes == columns
        trace.histogram
        assert trace.nbytes == columns + trace.histogram.nbytes

    def test_int32_range_checked(self):
        with pytest.raises(ConfigError, match="int32"):
            AccessEpoch(0.1, np.array([2**31]), np.array([1]))
        with pytest.raises(ConfigError, match="int32"):
            AccessEpoch(0.1, np.array([1]), np.array([2**31]))
        with pytest.raises(ConfigError, match="int32"):
            InvocationTrace.from_columns(
                16, pages=[1], counts=[2**32 + 1], ptr=[0, 1],
                cpu_time_s=[0.1], random_fraction=[0.0], store_fraction=[0.0],
            )

    def test_column_validation(self):
        def build(pages, counts, ptr, **kw):
            n = len(ptr) - 1
            args = dict(cpu_time_s=[0.1] * n, random_fraction=[0.0] * n,
                        store_fraction=[0.0] * n)
            args.update(kw)
            return InvocationTrace.from_columns(
                16, pages=pages, counts=counts, ptr=ptr, **args
            )

        # Each epoch restarts its ascending run; a repeat inside one fails.
        assert build([3, 7, 1, 7], [1, 1, 1, 1], [0, 2, 4]).n_epochs == 2
        with pytest.raises(ConfigError):
            build([3, 7, 1, 7], [1, 1, 1, 1], [0, 4])
        with pytest.raises(ConfigError):
            build([3, 3], [1, 1], [0, 2])
        with pytest.raises(ConfigError):
            build([1, 2], [1, 1], [0, 3])
        with pytest.raises(ConfigError):
            build([1, 2], [1, 1], [0, 1, 2], cpu_time_s=[0.1])
        with pytest.raises(ConfigError):
            build([1, 2], [1, 0], [0, 1, 2])
        with pytest.raises(ConfigError):
            build([1], [1], [0, 1], store_fraction=[1.5])
        with pytest.raises(AddressSpaceError):
            build([1, 16], [1, 1], [0, 1, 2])
        with pytest.raises(AddressSpaceError):
            build([-1], [1], [0, 1])
