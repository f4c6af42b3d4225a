"""Tests for trace serialisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.trace.io import load_trace, save_trace, trace_from_csv, trace_to_csv

from conftest import make_trace


class TestNpzRoundTrip:
    def test_round_trip(self, tmp_path, tiny_function):
        trace = tiny_function.trace(2, 5)
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.n_pages == trace.n_pages
        assert loaded.label == trace.label
        assert len(loaded.epochs) == len(trace.epochs)
        np.testing.assert_array_equal(loaded.histogram, trace.histogram)
        for a, b in zip(loaded.epochs, trace.epochs):
            assert a.cpu_time_s == pytest.approx(b.cpu_time_s)
            assert a.store_fraction == b.store_fraction
            np.testing.assert_array_equal(a.pages, b.pages)

    def test_round_trip_keeps_the_csr_columns(self, tmp_path, tiny_function):
        trace = tiny_function.trace(1, 2)
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        for name in ("pages", "counts", "ptr", "epoch_cpu_time_s",
                     "epoch_random_fraction", "epoch_store_fraction"):
            a, b = getattr(loaded, name), getattr(trace, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b)
        assert loaded.pages.dtype == np.int32
        assert loaded.cpu_time_s == trace.cpu_time_s

    def test_empty_epoch_round_trip(self, tmp_path):
        trace = make_trace(pages=(), counts=())
        path = tmp_path / "empty.npz"
        save_trace(trace, path)
        assert load_trace(path).total_accesses == 0

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(ConfigError):
            load_trace(path)


def _write_legacy(path, trace, pages=None, counts=None):
    """A file in the pre-columnar layout: int64 arrays per epoch."""
    arrays = {
        "n_pages": np.asarray([trace.n_pages], dtype=np.int64),
        "n_epochs": np.asarray([len(trace.epochs)], dtype=np.int64),
        "label": np.asarray([trace.label]),
        "cpu_time_s": np.asarray([e.cpu_time_s for e in trace.epochs]),
        "random_fraction": np.asarray(
            [e.random_fraction for e in trace.epochs]
        ),
        "store_fraction": np.asarray([e.store_fraction for e in trace.epochs]),
    }
    for i, epoch in enumerate(trace.epochs):
        arrays[f"pages_{i}"] = epoch.pages.astype(np.int64)
        arrays[f"counts_{i}"] = epoch.counts.astype(np.int64)
    if pages is not None:
        arrays["pages_0"] = pages
    if counts is not None:
        arrays["counts_0"] = counts
    np.savez_compressed(path, **arrays)


class TestLegacyAndRange:
    def test_legacy_per_epoch_file_loads(self, tmp_path, tiny_function):
        trace = tiny_function.trace(3, 1)
        path = tmp_path / "legacy.npz"
        _write_legacy(path, trace)
        loaded = load_trace(path)
        assert loaded.label == trace.label
        assert loaded.pages.dtype == np.int32
        np.testing.assert_array_equal(loaded.ptr, trace.ptr)
        np.testing.assert_array_equal(loaded.pages, trace.pages)
        np.testing.assert_array_equal(loaded.counts, trace.counts)
        np.testing.assert_array_equal(
            loaded.epoch_cpu_time_s, trace.epoch_cpu_time_s
        )

    def test_legacy_file_with_int32_overflow_rejected(self, tmp_path):
        trace = make_trace(n_pages=2**33, pages=(0, 1), counts=(5, 7))
        path = tmp_path / "wide.npz"
        _write_legacy(path, trace, counts=np.asarray([5, 2**31], np.int64))
        with pytest.raises(ConfigError, match="int32"):
            load_trace(path)
        _write_legacy(path, trace, pages=np.asarray([0, 2**32], np.int64))
        with pytest.raises(ConfigError, match="int32"):
            load_trace(path)

    def test_columnar_file_with_int64_overflow_rejected(self, tmp_path):
        trace = make_trace(pages=(0, 1), counts=(5, 7))
        path = tmp_path / "wide.npz"
        save_trace(trace, path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["counts"] = np.asarray([5, 2**40], dtype=np.int64)
        np.savez(path, **arrays)
        with pytest.raises(ConfigError, match="int32"):
            load_trace(path)

    def test_csv_outside_int32_rejected(self):
        with pytest.raises(ConfigError, match="int32"):
            trace_from_csv(f"0,{2**31},1\n", n_pages=2**33)
        with pytest.raises(ConfigError, match="int32"):
            trace_from_csv(f"0,1,{2**31}\n", n_pages=16)
        # Duplicate rows accumulate past the range too.
        with pytest.raises(ConfigError, match="int32"):
            trace_from_csv(f"0,1,{2**30}\n0,1,{2**30}\n", n_pages=16)
        with pytest.raises(ConfigError, match="int32"):
            trace_from_csv(f"0,1,{2**80}\n", n_pages=16)


class TestCsv:
    def test_round_trip(self):
        trace = make_trace(pages=(1, 5, 9), counts=(10, 20, 30), n_epochs=2)
        text = trace_to_csv(trace)
        back = trace_from_csv(text, n_pages=trace.n_pages)
        np.testing.assert_array_equal(back.histogram, trace.histogram)
        assert len(back.epochs) == 2

    def test_header_optional(self):
        trace = trace_from_csv("0,3,7\n0,4,1\n", n_pages=16)
        assert trace.total_accesses == 8

    def test_duplicate_rows_accumulate(self):
        trace = trace_from_csv("0,3,5\n0,3,5\n", n_pages=16)
        assert trace.histogram[3] == 10

    def test_gap_epochs_become_empty(self):
        trace = trace_from_csv("0,1,1\n2,1,1\n", n_pages=16)
        assert len(trace.epochs) == 3
        assert trace.epochs[1].total_accesses == 0

    def test_metadata_defaults(self):
        trace = trace_from_csv(
            "0,0,1\n", n_pages=4, store_fraction=0.4, random_fraction=0.2
        )
        assert trace.epochs[0].store_fraction == 0.4
        assert trace.epochs[0].random_fraction == 0.2

    def test_invalid_rows_rejected(self):
        with pytest.raises(ConfigError):
            trace_from_csv("0,abc,1\n", n_pages=16)
        with pytest.raises(ConfigError):
            trace_from_csv("0,1,0\n", n_pages=16)
        with pytest.raises(ConfigError):
            trace_from_csv("", n_pages=16)

    def test_csv_trace_feeds_analysis(self):
        """A hand-made CSV trace runs through the placement pipeline."""
        rows = ["epoch,page,count"]
        for page in range(64):
            rows.append(f"0,{page},{1000 if page < 8 else 2}")
        trace = trace_from_csv("\n".join(rows), n_pages=4096)
        from repro.memsim.tiers import Tier
        from repro.vm.microvm import MicroVM

        slow = np.full(4096, int(Tier.SLOW), dtype=np.uint8)
        t_slow = MicroVM(4096, placement=slow).execute(trace).time_s
        t_fast = MicroVM(4096).execute(trace).time_s
        assert t_slow > t_fast
