"""The execution kernel: traces replayed column by column.

A trace is one CSR layout (:mod:`repro.trace.events`), so replaying it
against a VM's page state is a handful of column operations rather
than an epoch-by-epoch loop.  :func:`_execute_columns` is the one
engine behind every execution:

* :meth:`repro.vm.microvm.MicroVM.execute` runs it on a cohort of one
  trace against the VM's own residency, content versions and host page
  cache, which it updates in place;
* :func:`execute_cohort` runs a synchronized arrival cohort (Figure 9's
  C concurrent cold starts) against *identical* restored state — same
  placement, same backing, same residency each — without mutating it.

The kernel charges exactly what an ``acc += x`` loop over epochs would,
bit for bit:

* Every float is produced by one fixed IEEE-754 operation sequence:
  elementwise vectorized ops replicate scalar ops exactly, and the
  per-invocation accumulators are folded with
  :func:`~repro.sim.batch.segment_fold_left` (a true sequential left
  fold, not a pairwise reduction).  These orders are pinned against a
  frozen epoch-loop reference in ``tests/test_execute_reference.py``.
* Per-epoch integer tallies (access counts per tier, fault counts per
  backing kind) are order-independent and exact, so they use
  :func:`~repro.sim.batch.segment_sums_int` and one ``np.bincount`` over
  the cohort's faulting first accesses.
* An epoch with no pages contributes exact zeros everywhere, and
  ``x + 0.0 == x`` for the non-negative accumulators involved, so empty
  epochs, absent tiers and absent backing kinds need no special-casing.

:func:`cohort_eligible` gates the cohort path for process state that
must be seen one invocation at a time: an installed fault injector,
slow-tier backpressure hooks and an active observation runtime.
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np
import numpy.typing as npt

from .. import config, faults
from ..errors import VMError
from ..memsim.accounting import PerfCounters
from ..memsim.bandwidth import TierDemand
from ..memsim.page_cache import HostPageCache
from ..memsim.tiers import MemorySystem, Tier, TierSpec
from ..obs import runtime as obs_runtime
from .batch import segment_fold_left, segment_sums_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..trace.events import InvocationTrace
    from ..vm.microvm import ExecutionResult, MicroVM

__all__ = ["cohort_eligible", "execute_cohort"]


def cohort_eligible(memory: MemorySystem) -> bool:
    """Whether one restore may serve a whole cohort of invocations.

    Each invocation must run on its own restore instead when any of
    these hold:

    * a process-wide fault injector is installed (restores draw from it);
    * an observation runtime is active (execute/restore emit spans);
    * the memory system carries a fault hook (slow-tier specs become
      time-dependent).

    Per-cohort conditions (SSD-backed pages needing the host page cache)
    are checked by the caller against the restored template VM.
    """
    return (
        faults.resolve(None) is None
        and obs_runtime.active() is None
        and memory.fault_hook is None
    )


def execute_cohort(
    vm: "MicroVM", traces: Sequence["InvocationTrace"]
) -> "list[ExecutionResult]":
    """Execute each trace against a fresh copy of ``vm``'s state.

    Equivalent to restoring the same snapshot once per trace and calling
    ``restore.vm.execute(trace)`` — every counter, demand vector and
    epoch record is bit-for-bit what that returns.  ``vm`` itself is
    never mutated (the per-VM residency and page-version writes are
    unobservable: each invocation's VM is discarded after its one
    execute).  A VM with a host page cache is rejected: the cache's
    readahead state carries from one invocation to the next.
    """
    if vm.page_cache is not None:
        raise VMError("batch execution cannot model the host page cache")
    return _execute_columns(vm, traces, vm._resident.copy(), None, None)


def _joined(columns: list[npt.NDArray[Any]]) -> npt.NDArray[Any]:
    """Per-trace columns back to back (a cohort of one is not copied)."""
    return columns[0] if len(columns) == 1 else np.concatenate(columns)


def _access_latency(
    spec: TierSpec,
    serial: npt.NDArray[np.float64],
    rf: npt.NDArray[np.float64],
    sf: npt.NDArray[np.float64],
) -> npt.NDArray[np.float64]:
    """:meth:`TierSpec.effective_access_latency_s` over epoch columns."""
    load = spec.load_latency_s * (serial + rf * spec.random_penalty)
    out: npt.NDArray[np.float64] = (1.0 - sf) * load + sf * spec.store_latency_s
    return out


def _execute_columns(
    vm: "MicroVM",
    traces: Sequence["InvocationTrace"],
    resident: npt.NDArray[np.bool_],
    page_cache: HostPageCache | None,
    page_versions: npt.NDArray[np.uint64] | None,
) -> "list[ExecutionResult]":
    """Replay each trace against ``vm``'s placement and backing.

    Every trace starts from the same state: the ``resident`` mask (pages
    whose first touch already happened) and, for SSD-backed pages,
    ``page_cache``, consulted once per epoch and in epoch order, so its
    readahead carries over (without a cache, SSD-backed first touches
    raise).  The state is updated in place: on return every touched page
    is resident, and, when ``page_versions`` is given, every page touched
    by a storing epoch has its content version bumped.

    Each epoch's accesses are tallied per tier id over the memory
    system's chain: id 0 is the fast tier, id 1 the slow tier and
    ``2 + i`` middle tier ``i``.  Middle tiers are software pools
    resident in the fast tier's silicon, so their stall time and
    (ratio-scaled) physical bytes are charged to the fast resource for
    contention purposes, while the slow tier keeps its own read/write
    operation accounting.
    """
    from ..vm.microvm import Backing, EpochRecord, ExecutionResult

    if not traces:
        return []
    for trace in traces:
        if trace.n_pages != vm.n_pages:
            raise VMError(
                f"trace for {trace.n_pages}-page guest executed on "
                f"{vm.n_pages}-page VM"
            )
    memory = vm.memory
    n_ids = memory.n_tiers
    # Resolve tier specs once per call, so an active fault hook
    # (slow-tier backpressure) is reflected in this execution.
    specs = [memory.spec(tid) for tid in range(n_ids)]
    fast = specs[Tier.FAST]
    slow = specs[Tier.SLOW]

    # -- cohort-flat columns and their segmentations ------------------------
    # Each trace already is one CSR layout; the cohort's epochs are those
    # layouts back to back.
    bases = list(accumulate((t.n_epochs for t in traces), initial=0))
    inv_ptr = np.array(bases)
    total_epochs = bases[-1]
    page_ptr = np.zeros(total_epochs + 1, dtype=np.int64)
    np.cumsum(_joined([t.ptr[1:] - t.ptr[:-1] for t in traces]), out=page_ptr[1:])
    cpu_col = _joined([t.epoch_cpu_time_s for t in traces])
    rf_col = _joined([t.epoch_random_fraction for t in traces])
    sf_col = _joined([t.epoch_store_fraction for t in traces])
    counts_all = _joined([t.counts for t in traces])
    tot_col = segment_sums_int(counts_all, page_ptr)

    # -- page-level pass, one trace at a time -------------------------------
    # Page-sized temporaries live for one trace only.  Indices are intp
    # (numpy's fast gather path; int32 indices take a slower casting
    # path).  An all-fast placement (DRAM/REAP templates) makes every
    # other tier's tally an exact zero.  Residency is sticky, so only a
    # page's first access can fault, and a trace touching only resident
    # pages faults nowhere: the fault census is one bincount per trace
    # over (epoch, backing kind) pairs of the non-resident first accesses.
    n_kinds = len(Backing)
    kind_table: npt.NDArray[Any] = np.zeros((total_epochs, n_kinds), np.int64)
    pool_table: npt.NDArray[Any] | None = None
    ssd_misses: npt.NDArray[Any] | None = None
    all_resident = bool(resident.all())
    any_placed = bool(vm.placement.any())
    stores = sf_col > 0
    tiers: list[npt.NDArray[Any]] = []
    faulted: list[npt.NDArray[Any]] = []
    if not all_resident or any_placed or page_versions is not None:
        for trace, base in zip(traces, bases):
            page = trace.pages.astype(np.intp)
            rows = slice(base, base + trace.n_epochs)
            if any_placed:
                tiers.append(vm.placement[page])
            if page_versions is not None:
                # Stores dirty the touched pages (content versioning).
                dirty = stores[rows]
                if dirty.all():
                    np.add.at(page_versions, page, np.uint64(1))
                elif dirty.any():
                    dirty = dirty.repeat(trace.ptr[1:] - trace.ptr[:-1])
                    np.add.at(page_versions, page[dirty], np.uint64(1))
            if all_resident:
                continue
            cold = ~resident[page]
            if not cold.any():
                continue
            epoch, _, first = trace.first_accesses(page)
            new = first & cold
            # In epoch order, ascending pages within an epoch.
            f_pages = page[new]
            f_epochs = epoch[new].astype(np.intp)
            f_kinds = vm.backing[f_pages]
            faulted.append(f_pages)
            kind_table[rows] = np.bincount(
                f_epochs * n_kinds + f_kinds,
                minlength=trace.n_epochs * n_kinds,
            ).reshape(trace.n_epochs, n_kinds)
            pool = f_kinds == int(Backing.COMPRESSED_POOL)
            if pool.any():
                # Decompression is charged at the codec of the placed tier.
                if pool_table is None:
                    pool_table = np.zeros((total_epochs, n_ids), np.int64)
                pool_table[rows] = np.bincount(
                    f_epochs[pool] * n_ids + vm.placement[f_pages[pool]],
                    minlength=trace.n_epochs * n_ids,
                ).reshape(trace.n_epochs, n_ids)
            ssd = f_kinds == int(Backing.SSD_FILE)
            if ssd.any():
                if page_cache is None:
                    raise VMError("SSD-backed pages need a host page cache")
                if ssd_misses is None:
                    ssd_misses = np.zeros(total_epochs, dtype=np.int64)
                ssd_epochs = f_epochs[ssd]
                cuts = np.flatnonzero(ssd_epochs[1:] != ssd_epochs[:-1]) + 1
                starts = ssd_epochs[np.concatenate([[0], cuts])].tolist()
                for e, group in zip(starts, np.split(f_pages[ssd], cuts)):
                    ssd_misses[base + e] = page_cache.fault_in(group)
    # Every trace started from the same residency; mark it afterwards.
    for f_pages in faulted:
        resident[f_pages] = True

    # -- per-epoch access tallies per tier id (exact int64 arithmetic) ------
    n_by_id = np.zeros((n_ids, total_epochs), dtype=np.int64)
    if tiers:
        tiers_all = _joined(tiers)
        for tid in range(1, n_ids):
            on_tier = tiers_all == tid
            if on_tier.any():
                n_by_id[tid] = segment_sums_int(counts_all * on_tier, page_ptr)
    n_slow = n_by_id[Tier.SLOW]
    n_by_id[Tier.FAST] = tot_col - n_by_id[1:].sum(axis=0)
    n_fast = n_by_id[Tier.FAST]

    # -- per-epoch float costs, elementwise ---------------------------------
    # Fault service: soft is CPU-side work (minor faults, PMEM page
    # copies, pool decompression, page-cache hits), ssd/uffd are stalls
    # on the SSD / the userfaultfd handler.  Absent terms are exact
    # zeros, so they are left out.
    zeros: npt.NDArray[Any] = np.zeros(total_epochs)
    if not faulted:
        soft_e = ssd_e = uffd_e = fault_e = zeros
        minor_e = major_e = n_uffd = kind_table[:, Backing.UFFD_SSD]
    else:
        n_zero = kind_table[:, Backing.ZERO]
        n_dax = kind_table[:, Backing.DAX_SLOW]
        n_copy = kind_table[:, Backing.PMEM_COPY]
        n_uffd = kind_table[:, Backing.UFFD_SSD]
        n_pool = kind_table[:, Backing.COMPRESSED_POOL]
        minor_e = n_zero + n_dax + n_copy + n_pool
        major_e = n_uffd
        soft_e = (n_zero + n_dax) * config.MINOR_FAULT_LATENCY_S + (
            n_copy * config.PMEM_COPY_FAULT_LATENCY_S
        )
        if pool_table is not None:
            soft_e = soft_e + n_pool * config.MINOR_FAULT_LATENCY_S
            for tid, spec in enumerate(specs):
                point = getattr(spec, "compression", None)
                if point is not None:
                    soft_e = soft_e + (
                        pool_table[:, tid] * point.decompress_page_latency_s
                    )
        ssd_e = zeros
        if ssd_misses is not None:
            ssd_hits = kind_table[:, Backing.SSD_FILE] - ssd_misses
            soft_e = soft_e + ssd_hits * config.MINOR_FAULT_LATENCY_S
            ssd_e = ssd_misses * config.MAJOR_FAULT_LATENCY_S
            minor_e = minor_e + ssd_hits
            major_e = major_e + ssd_misses
        uffd_e = n_uffd * config.UFFD_FAULT_LATENCY_S
        fault_e = (soft_e + ssd_e) + uffd_e
    # Tier stalls: fast, slow reads/writes, then the middle tiers in
    # chain order.
    serial_e = 1.0 - rf_col
    lat_slow_read = slow.load_latency_s * (
        serial_e + rf_col * slow.random_penalty
    )
    reads_e = n_slow * (1.0 - sf_col)
    writes_e = n_slow * sf_col
    e_fast_e = n_fast * _access_latency(fast, serial_e, rf_col, sf_col)
    e_read_e = reads_e * lat_slow_read
    e_write_e = writes_e * slow.store_latency_s
    slow_stall_e = e_read_e + e_write_e
    dur_e = (cpu_col + fault_e) + ((e_fast_e + e_read_e) + e_write_e)
    e_mid_e = zeros
    for i, spec in enumerate(memory.middle):
        e_mid_e = e_mid_e + n_by_id[2 + i] * _access_latency(
            spec, serial_e, rf_col, sf_col
        )
    if memory.middle:
        dur_e = dur_e + e_mid_e
        e_fast_e = e_fast_e + e_mid_e

    # -- per-invocation accumulators --------------------------------------
    # Floats fold sequentially (the `acc += x` order over epochs);
    # integers sum exactly by any method.  Within an epoch the fast
    # resource's bytes come from the middle tiers first, in chain order
    # (each moves access_bytes / ratio over the DRAM bus), then from the
    # fast tier: every epoch is ``width`` fold steps, the other columns
    # taking their one step last (``acc + 0.0 == acc`` before it).
    width = 1 + len(memory.middle)
    terms = np.zeros((12, total_epochs, width))
    terms[:11, :, -1] = (
        cpu_col,
        soft_e,
        ssd_e,
        uffd_e,
        fault_e,
        e_fast_e,
        slow_stall_e,
        e_read_e,
        e_write_e,
        reads_e,
        writes_e,
    )
    for i, spec in enumerate(memory.middle):
        ratio = getattr(spec, "effective_capacity_multiplier", 1.0)
        terms[11, :, i] = n_by_id[2 + i] * (spec.access_bytes / ratio)
    terms[11, :, -1] = n_fast * fast.access_bytes
    (
        cpu_inv,
        soft_inv,
        ssd_stall_inv,
        uffd_stall_inv,
        fault_stall_inv,
        fast_stall_inv,
        slow_stall_inv,
        read_stall_inv,
        write_stall_inv,
        read_ops_inv,
        write_ops_inv,
        fast_bytes_inv,
    ) = segment_fold_left(
        terms.reshape(12, total_epochs * width), inv_ptr * width
    ).tolist()
    # Every SSD operation is a major fault: a userfaultfd read or a
    # page-cache miss.
    fast_inv, slow_inv, minor_inv, major_inv, uffd_inv = segment_sums_int(
        np.array([tot_col - n_slow, n_slow, minor_e, major_e, n_uffd]),
        inv_ptr,
    ).tolist()

    results: list[ExecutionResult] = []
    dur_list = dur_e.tolist()
    for i, trace in enumerate(traces):
        lo = bases[i]
        bounds = trace.ptr.tolist()
        records = tuple(
            EpochRecord(
                dur_list[lo + e],
                trace.pages[bounds[e] : bounds[e + 1]],
                trace.counts[bounds[e] : bounds[e + 1]],
            )
            for e in range(trace.n_epochs)
        )
        counters = PerfCounters(
            cpu_time_s=cpu_inv[i],
            fast_stall_s=fast_stall_inv[i],
            slow_stall_s=slow_stall_inv[i],
            fault_stall_s=fault_stall_inv[i],
            fast_accesses=fast_inv[i],
            slow_accesses=slow_inv[i],
            minor_faults=minor_inv[i],
            major_faults=major_inv[i],
        )
        demand = TierDemand(
            cpu_time_s=counters.cpu_time_s + soft_inv[i],
            fast_stall_s=counters.fast_stall_s,
            fast_bytes=fast_bytes_inv[i],
            slow_read_stall_s=read_stall_inv[i],
            slow_read_ops=read_ops_inv[i],
            slow_write_stall_s=write_stall_inv[i],
            slow_write_ops=write_ops_inv[i],
            ssd_stall_s=ssd_stall_inv[i],
            ssd_ops=float(major_inv[i]),
            uffd_stall_s=uffd_stall_inv[i],
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
