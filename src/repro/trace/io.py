"""Trace serialisation.

Users with real profiling data (e.g. a ``damo record`` dump or a custom
pin tool) can package it as an :class:`~repro.trace.events.InvocationTrace`
and feed it to the analysis pipeline.  This module provides a compact
on-disk format (numpy ``.npz``) and a plain-CSV import for hand-made
traces.

CSV format: one row per (epoch, page) pair::

    epoch,page,count
    0,4096,17
    0,4097,3
    1,4096,25

Epoch metadata (cpu time, random/store fractions) rides in the npz form;
the CSV import takes them as per-epoch defaults.

The ``.npz`` form stores the trace's CSR columns as they are held in
memory (int32 ``pages``/``counts``, int64 ``ptr``, float64 per-epoch
columns).  Files written before the columnar layout — one int64
``pages_<i>``/``counts_<i>`` pair per epoch — still load.  Page indices
or counts outside the int32 range are rejected with a
:class:`~repro.errors.ConfigError` rather than wrapped.
"""

from __future__ import annotations

import csv
import io
import pathlib

import numpy as np

from ..errors import ConfigError
from .events import InvocationTrace, int32_column

__all__ = ["save_trace", "load_trace", "trace_from_csv", "trace_to_csv"]


def save_trace(trace: InvocationTrace, path: str | pathlib.Path) -> None:
    """Write a trace's CSR columns to a compact ``.npz`` file."""
    np.savez_compressed(
        path,
        n_pages=np.asarray([trace.n_pages], dtype=np.int64),
        label=np.asarray([trace.label]),
        pages=trace.pages,
        counts=trace.counts,
        ptr=trace.ptr,
        cpu_time_s=trace.epoch_cpu_time_s,
        random_fraction=trace.epoch_random_fraction,
        store_fraction=trace.epoch_store_fraction,
    )


def _legacy_columns(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR columns from a per-epoch ``pages_<i>``/``counts_<i>`` file."""
    epochs = range(int(data["n_epochs"][0]))
    empty = np.empty(0, dtype=np.int32)
    pages = [int32_column(data[f"pages_{i}"], "page indices") for i in epochs]
    counts = [int32_column(data[f"counts_{i}"], "access counts") for i in epochs]
    ptr = np.cumsum([0, *(p.size for p in pages)], dtype=np.int64)
    return np.concatenate([empty, *pages]), np.concatenate([empty, *counts]), ptr


def load_trace(path: str | pathlib.Path) -> InvocationTrace:
    """Read a trace written by :func:`save_trace` (either file layout)."""
    try:
        with np.load(path, allow_pickle=False) as data:
            n_pages = int(data["n_pages"][0])
            label = str(data["label"][0])
            if "ptr" in data:
                pages = int32_column(data["pages"], "page indices")
                counts = int32_column(data["counts"], "access counts")
                ptr = data["ptr"]
            else:
                pages, counts, ptr = _legacy_columns(data)
            cpu = data["cpu_time_s"]
            rf = data["random_fraction"]
            sf = data["store_fraction"]
    except (KeyError, ValueError, OSError) as exc:
        raise ConfigError(f"malformed trace file {path}: {exc}") from exc
    return InvocationTrace.from_columns(
        n_pages,
        pages=pages,
        counts=counts,
        ptr=ptr,
        cpu_time_s=cpu,
        random_fraction=rf,
        store_fraction=sf,
        label=label,
    )


def trace_from_csv(
    text: str,
    n_pages: int,
    *,
    cpu_time_per_epoch_s: float = 0.01,
    random_fraction: float = 0.0,
    store_fraction: float = 0.0,
    label: str = "csv",
) -> InvocationTrace:
    """Build a trace from ``epoch,page,count`` CSV text."""
    by_epoch: dict[int, dict[int, int]] = {}
    reader = csv.reader(io.StringIO(text))
    for lineno, row in enumerate(reader, start=1):
        if not row or row[0].strip().lower() == "epoch":
            continue
        try:
            epoch, page, count = (int(c) for c in row[:3])
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"CSV line {lineno}: {exc}") from exc
        if count <= 0:
            raise ConfigError(f"CSV line {lineno}: count must be positive")
        by_epoch.setdefault(epoch, {})
        by_epoch[epoch][page] = by_epoch[epoch].get(page, 0) + count
    if not by_epoch:
        raise ConfigError("CSV contains no access rows")
    n_epochs = max(by_epoch) + 1
    pages: list[int] = []
    counts: list[int] = []
    ptr = np.zeros(n_epochs + 1, dtype=np.int64)
    for epoch_id in range(n_epochs):
        hist = by_epoch.get(epoch_id, {})
        for page in sorted(hist):
            pages.append(page)
            counts.append(hist[page])
        ptr[epoch_id + 1] = len(pages)
    return InvocationTrace.from_columns(
        n_pages,
        pages=int32_column(pages, "CSV page indices"),
        counts=int32_column(counts, "CSV access counts"),
        ptr=ptr,
        cpu_time_s=np.full(n_epochs, cpu_time_per_epoch_s),
        random_fraction=np.full(n_epochs, random_fraction),
        store_fraction=np.full(n_epochs, store_fraction),
        label=label,
    )


def trace_to_csv(trace: InvocationTrace) -> str:
    """Export a trace as ``epoch,page,count`` CSV text."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["epoch", "page", "count"])
    for i, epoch in enumerate(trace.epochs):
        for page, count in zip(epoch.pages.tolist(), epoch.counts.tolist()):
            writer.writerow([i, page, count])
    return out.getvalue()
