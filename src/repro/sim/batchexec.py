"""Vectorized cohort execution: many invocations, one restored template.

:meth:`repro.vm.microvm.MicroVM.execute` replays one trace epoch by
epoch.  A synchronized arrival cohort (Figure 9's C concurrent cold
starts) replays *C* traces against *identical* restored state — same
placement, same backing, fresh residency each — so the per-epoch scalar
arithmetic can be laid out flat and computed with NumPy over the whole
cohort at once.  :func:`execute_cohort` does exactly that and is
**bit-identical** to the scalar loop:

* Every float is produced by the same IEEE-754 operation sequence the
  scalar engine performs — elementwise vectorized ops replicate scalar
  ops exactly, and the per-invocation accumulators are folded with
  :func:`~repro.sim.batch.segment_fold_left` (a true sequential left
  fold, not a pairwise reduction).
* Per-epoch integer tallies (access counts, fault-kind counts) are
  order-independent and exact, so they use ``np.add.reduceat`` over the
  non-empty epoch segments (the empty ones contribute nothing and are
  masked out, as ``reduceat`` mishandles zero-length segments) and one
  ``np.bincount`` over the cohort's first-touch pages.
* An epoch with no pages contributes exact zeros everywhere, and
  ``x + 0.0 == x`` for the non-negative accumulators involved, so the
  scalar engine's ``if pages.size:`` guard needs no special-casing.

The fast path deliberately excludes everything that makes execution
stateful or impure — SSD-backed pages (host page cache with readahead
carry), an installed fault injector, slow-tier backpressure hooks, an
active observation runtime — via :func:`cohort_eligible`; callers fall
back to the scalar engine when it returns ``False``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np
import numpy.typing as npt

from .. import config, faults
from ..errors import VMError
from ..memsim.accounting import PerfCounters
from ..memsim.bandwidth import TierDemand
from ..memsim.tiers import MemorySystem, Tier
from ..obs import profile as profile_mod
from ..obs import runtime as obs_runtime
from .batch import segment_fold_left, segment_sums_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..trace.events import InvocationTrace
    from ..vm.microvm import ExecutionResult, MicroVM

__all__ = ["cohort_eligible", "execute_cohort"]

_N_BACKINGS = 6


def _segment_sums_nonempty(
    values: npt.NDArray[np.int32], ptr: npt.NDArray[np.int64]
) -> npt.NDArray[np.int64]:
    """Per-segment int64 sums via ``reduceat`` over non-empty segments.

    Integer addition is associative and exact, so ``reduceat``'s pairwise
    accumulation matches the sequential loop; it accumulates in int64, so
    int32 counts cannot overflow.  ``reduceat`` mishandles
    zero-length segments, so only non-empty starts are passed: each such
    segment then runs to the next non-empty start, which coincides with
    the true segment end because the skipped segments contribute no
    elements (same pattern as the DAMON aggregator).
    """
    out = np.zeros(ptr.size - 1, dtype=np.int64)
    starts = ptr[:-1]
    nonempty = starts < ptr[1:]
    if values.size and nonempty.any():
        out[nonempty] = np.add.reduceat(
            values, starts[nonempty], dtype=np.int64
        )
    return out


def cohort_eligible(memory: MemorySystem) -> bool:
    """Whether the batch fast path is exact for the current process state.

    The scalar engine must be used instead when any of these hold:

    * a process-wide fault injector is installed (restores draw from it);
    * an observation runtime is active (execute/restore emit spans);
    * the memory system carries a fault hook (slow-tier specs become
      time-dependent);
    * the memory system has middle tiers (compressed pools): the
      vectorized tally assumes the two-tier fast/slow split, so N-tier
      cohorts fall back to the scalar engine's N-tier path.

    Per-cohort conditions (SSD-backed pages needing the host page cache)
    are checked by the caller against the restored template VM.
    """
    return (
        faults.resolve(None) is None
        and obs_runtime.active() is None
        and memory.fault_hook is None
        and not memory.middle
    )


def execute_cohort(
    vm: "MicroVM", traces: Sequence["InvocationTrace"]
) -> "list[ExecutionResult]":
    """Execute each trace against a fresh copy of ``vm``'s restored state.

    Equivalent to restoring the same snapshot once per trace and calling
    ``restore.vm.execute(trace)`` — every counter, demand vector and
    epoch record is bit-for-bit what the scalar engine returns.  ``vm``
    itself is never mutated (the scalar path's per-VM residency and
    page-version writes are unobservable: each scalar invocation's VM is
    discarded after its one execute).
    """
    with profile_mod.phase("sim/execute_cohort"):
        return _execute_cohort(vm, traces)


def _execute_cohort(
    vm: "MicroVM", traces: Sequence["InvocationTrace"]
) -> "list[ExecutionResult]":
    from ..vm.microvm import Backing, EpochRecord, ExecutionResult

    if vm.page_cache is not None:
        raise VMError("batch execution cannot model the host page cache")
    if not traces:
        return []
    for trace in traces:
        if trace.n_pages != vm.n_pages:
            raise VMError(
                f"trace for {trace.n_pages}-page guest executed on "
                f"{vm.n_pages}-page VM"
            )
    fast = vm.memory.spec(Tier.FAST)
    slow = vm.memory.spec(Tier.SLOW)

    # -- cohort-flat columns and their segmentations ------------------------
    # Each trace already is one CSR layout; the cohort's epochs are those
    # layouts back to back.
    n_epochs = np.fromiter(
        (t.n_epochs for t in traces), dtype=np.int64, count=len(traces)
    )
    inv_ptr = np.zeros(len(traces) + 1, dtype=np.int64)
    np.cumsum(n_epochs, out=inv_ptr[1:])
    total_epochs = int(inv_ptr[-1])
    page_ptr = np.zeros(total_epochs + 1, dtype=np.int64)
    np.cumsum(
        np.concatenate([np.diff(t.ptr) for t in traces]), out=page_ptr[1:]
    )
    cpu_col = np.concatenate([t.epoch_cpu_time_s for t in traces])
    rf_col = np.concatenate([t.epoch_random_fraction for t in traces])
    sf_col = np.concatenate([t.epoch_store_fraction for t in traces])
    tot_col = np.concatenate([t.epoch_totals for t in traces])

    # -- fault classification (first touch of a non-resident page) ---------
    # Only first occurrences can fault, so the cohort's fault census is a
    # single bincount over (first-touch epoch, backing kind) pairs.  A
    # fully resident template (warm restores) faults nowhere, so the
    # census short-circuits to exact zeros.
    if vm.backing.any():
        touches = [t.first_touch for t in traces]
        fp_epoch = np.concatenate(
            [ft[1] + base for ft, base in zip(touches, inv_ptr[:-1].tolist())]
        )
        fp_kinds = np.concatenate(
            [vm.backing[ft[0].astype(np.intp)] for ft in touches]
        ).astype(np.int64)
        faulted = fp_kinds != int(Backing.RESIDENT)
        if np.any(fp_kinds[faulted] == int(Backing.SSD_FILE)):
            raise VMError("batch execution cannot model the host page cache")
        fault_table = np.bincount(
            fp_epoch[faulted] * _N_BACKINGS + fp_kinds[faulted],
            minlength=total_epochs * _N_BACKINGS,
        ).reshape(total_epochs, _N_BACKINGS)
        n_zero = fault_table[:, int(Backing.ZERO)]
        n_dax = fault_table[:, int(Backing.DAX_SLOW)]
        n_copy = fault_table[:, int(Backing.PMEM_COPY)]
        n_uffd = fault_table[:, int(Backing.UFFD_SSD)]
    else:
        n_zero = n_dax = n_copy = n_uffd = np.zeros(
            total_epochs, dtype=np.int64
        )

    # -- per-epoch access tallies (exact int64 arithmetic) ------------------
    # An all-fast placement (DRAM/REAP templates) makes every slow-tier
    # tally an exact zero without touching the page-level columns — the
    # dominant data volume for large cohorts.  Tiers are gathered trace by
    # trace with intp indices (numpy's fast gather path; int32 indices
    # take a slower casting path) without an 8-byte copy of the whole
    # cohort's pages.
    if vm.placement.any():
        tiers_all = np.concatenate(
            [vm.placement[t.pages.astype(np.intp)] for t in traces]
        )
        counts_all = np.concatenate([t.counts for t in traces])
        slow_counts = np.where(tiers_all == int(Tier.SLOW), counts_all, 0)
        n_slow = _segment_sums_nonempty(slow_counts, page_ptr)
        n_fast = tot_col - n_slow
    else:
        n_slow = np.zeros(total_epochs, dtype=np.int64)
        n_fast = tot_col

    # -- per-epoch float costs: the scalar engine's ops, elementwise --------
    # _fault_in: soft = (n_zero + n_dax) * MINOR + n_copy * PMEM_COPY,
    # uffd = n_uffd * UFFD (both left-associated, both starting from 0.0
    # which is an exact no-op for these non-negative terms).
    soft_e = (n_zero + n_dax) * config.MINOR_FAULT_LATENCY_S + (
        n_copy * config.PMEM_COPY_FAULT_LATENCY_S
    )
    uffd_e = n_uffd * config.UFFD_FAULT_LATENCY_S
    # fault_stall contribution: (soft + ssd) + uffd with ssd == 0.0, and
    # soft + 0.0 == soft exactly (non-negative), so the 0.0 is elided.
    fault_e = soft_e + uffd_e
    # execute(): tier latencies per epoch (TierSpec formulas, same order).
    serial_e = 1.0 - rf_col
    lat_fast_load = fast.load_latency_s * (
        serial_e + rf_col * fast.random_penalty
    )
    lat_fast = (1.0 - sf_col) * lat_fast_load + sf_col * fast.store_latency_s
    lat_slow_read = slow.load_latency_s * (
        serial_e + rf_col * slow.random_penalty
    )
    reads_e = n_slow * (1.0 - sf_col)
    writes_e = n_slow * sf_col
    e_fast_e = n_fast * lat_fast
    e_read_e = reads_e * lat_slow_read
    e_write_e = writes_e * slow.store_latency_s
    stall_e = (e_fast_e + e_read_e) + e_write_e
    dur_e = (cpu_col + fault_e) + stall_e

    # -- per-invocation accumulators --------------------------------------
    # Floats fold sequentially (the scalar `+=` order); integers sum
    # exactly by any method.
    cpu_inv = segment_fold_left(cpu_col, inv_ptr)
    soft_inv = segment_fold_left(soft_e, inv_ptr)
    uffd_stall_inv = segment_fold_left(uffd_e, inv_ptr)
    fault_stall_inv = segment_fold_left(fault_e, inv_ptr)
    fast_stall_inv = segment_fold_left(e_fast_e, inv_ptr)
    slow_stall_inv = segment_fold_left(e_read_e + e_write_e, inv_ptr)
    read_stall_inv = segment_fold_left(e_read_e, inv_ptr)
    write_stall_inv = segment_fold_left(e_write_e, inv_ptr)
    read_ops_inv = segment_fold_left(reads_e, inv_ptr)
    write_ops_inv = segment_fold_left(writes_e, inv_ptr)
    fast_inv = segment_sums_int(n_fast, inv_ptr)
    slow_inv = segment_sums_int(n_slow, inv_ptr)
    minor_inv = segment_sums_int(n_zero + n_dax + n_copy, inv_ptr)
    uffd_inv = segment_sums_int(n_uffd, inv_ptr)
    # fast_bytes / ssd_ops / uffd_ops accumulate integer-valued floats,
    # which stay exact (and hence order-independent) below 2**53.
    fast_bytes_inv = fast_inv * fast.access_bytes

    results: list[ExecutionResult] = []
    dur_list = dur_e.tolist()
    for i, trace in enumerate(traces):
        lo = int(inv_ptr[i])
        records = tuple(
            EpochRecord(dur_list[lo + j], epoch.pages, epoch.counts)
            for j, epoch in enumerate(trace.epochs)
        )
        counters = PerfCounters(
            cpu_time_s=float(cpu_inv[i]),
            fast_stall_s=float(fast_stall_inv[i]),
            slow_stall_s=float(slow_stall_inv[i]),
            fault_stall_s=float(fault_stall_inv[i]),
            fast_accesses=int(fast_inv[i]),
            slow_accesses=int(slow_inv[i]),
            minor_faults=int(minor_inv[i]),
            major_faults=int(uffd_inv[i]),
        )
        demand = TierDemand(
            cpu_time_s=counters.cpu_time_s + float(soft_inv[i]),
            fast_stall_s=counters.fast_stall_s,
            fast_bytes=float(fast_bytes_inv[i]),
            slow_read_stall_s=float(read_stall_inv[i]),
            slow_read_ops=float(read_ops_inv[i]),
            slow_write_stall_s=float(write_stall_inv[i]),
            slow_write_ops=float(write_ops_inv[i]),
            ssd_stall_s=0.0,
            ssd_ops=float(uffd_inv[i]),
            uffd_stall_s=float(uffd_stall_inv[i]),
            uffd_ops=float(uffd_inv[i]),
        )
        results.append(
            ExecutionResult(
                counters=counters,
                demand=demand,
                epoch_records=records,
                label=trace.label,
            )
        )
    return results
