"""Common interface for the systems under evaluation."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from .. import config
from ..functions.base import FunctionModel
from ..memsim.accounting import PerfCounters
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem
from ..sim.batchexec import cohort_eligible, execute_cohort
from ..sim.timing import InvocationTiming
from ..vm.microvm import ExecutionResult
from ..vm.restore import RestoreResult
from ..vm.vmm import VMM

__all__ = ["SystemOutcome", "ServerlessSystem"]


@dataclass(frozen=True)
class SystemOutcome:
    """One invocation under one system."""

    system: str
    input_index: int
    seed: int
    setup_time_s: float
    execution: ExecutionResult

    @property
    def exec_time_s(self) -> float:
        """Uncontended execution time."""
        return self.execution.time_s

    @property
    def timing(self) -> InvocationTiming:
        """The setup/execution split as the kernel's shared timing record."""
        return InvocationTiming(setup_s=self.setup_time_s, exec_s=self.exec_time_s)

    @property
    def total_time_s(self) -> float:
        """Setup plus execution (the Figure 8 quantity)."""
        return self.timing.total_s


class ServerlessSystem(abc.ABC):
    """A system that serves invocations of one function.

    Subclasses set up their snapshot machinery in ``__init__`` (that is
    the offline/recording part) and serve cold invocations in
    :meth:`invoke` — each invocation restores fresh with a dropped page
    cache, as the evaluation methodology prescribes (Section VI-A).
    """

    name: str = "abstract"

    def __init__(
        self,
        function: FunctionModel,
        *,
        memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
        root_seed: int = config.DEFAULT_SEED,
    ) -> None:
        self.function = function
        self.memory = memory
        self.root_seed = root_seed
        self.vmm = VMM(memory, root_seed=root_seed)
        # Memo of batch-path execution values keyed by (input, seed).
        # Cold invocations are deterministic in exactly that key (plus
        # the system's frozen snapshot state), so replayed cohorts — the
        # Figure 9 sweep re-runs identical waves through fresh Schedulers
        # — rebuild their outcomes from stored values instead of
        # re-executing.  Only the batch fast path reads or writes it, so
        # entries exist only for fault-free, unobserved invocations.
        self._cohort_memo: dict[tuple[int, int], tuple] = {}
        self._cohort_setup_s: float | None = None

    @abc.abstractmethod
    def invoke(self, input_index: int, seed: int = 0) -> SystemOutcome:
        """Serve one cold invocation."""

    def _invoke_restore(self) -> RestoreResult | None:
        """The restore :meth:`invoke` performs, or ``None``.

        Systems whose invoke is exactly ``restore fresh, execute trace``
        return that restore here to unlock :meth:`invoke_batch`'s
        one-restore cohort path; the default ``None`` keeps the
        per-invocation loop.
        """
        return None

    def invoke_batch(
        self, input_index: int, seeds: Sequence[int]
    ) -> list[SystemOutcome]:
        """Serve a synchronized cohort of cold invocations.

        Bit-identical to ``[self.invoke(input_index, s) for s in seeds]``
        — the contract every caller relies on.  When the system exposes
        its restore (:meth:`_invoke_restore`) and the process state is
        pure (no fault injector, no observation runtime, no slow-tier
        backpressure hook, no host page cache), the cohort restores once
        and executes in one pass of the execution kernel
        (:func:`repro.sim.batchexec.execute_cohort`); otherwise it falls
        back to one restore and execute per seed.  Either way the cohort's missing traces
        are synthesised concurrently on the trace synthesis pool
        (:meth:`FunctionModel.prefetch`) and claimed in seed order.

        On the fast path, execution values are memoized per
        ``(input_index, seed)``: cold invocations are fully deterministic
        in that key once the system's snapshot state is frozen (true for
        every concrete system after ``__init__``), so replayed cohorts
        skip both the restore and the execution.  Outcomes are still
        rebuilt fresh — :class:`~repro.memsim.accounting.PerfCounters` is
        mutable, so only its field values are cached; the frozen demand
        vectors and epoch records are shared, exactly as results share
        trace arrays.
        """
        if not cohort_eligible(self.memory):
            return self._invoke_each(input_index, seeds)
        memo = self._cohort_memo
        missing = [s for s in seeds if (input_index, s) not in memo]
        if missing or self._cohort_setup_s is None:
            restore = self._invoke_restore()
            if restore is None or restore.vm.page_cache is not None:
                return self._invoke_each(input_index, seeds)
            self._cohort_setup_s = restore.setup_time_s
            with self.function.prefetch(
                input_index, missing, root_seed=self.root_seed
            ):
                traces = [self._trace(input_index, s) for s in missing]
                executions = execute_cohort(restore.vm, traces)
            for seed, execution in zip(missing, executions):
                c = execution.counters
                memo[(input_index, seed)] = (
                    (
                        c.cpu_time_s,
                        c.fast_stall_s,
                        c.slow_stall_s,
                        c.fault_stall_s,
                        c.fast_accesses,
                        c.slow_accesses,
                        c.minor_faults,
                        c.major_faults,
                    ),
                    execution.demand,
                    execution.epoch_records,
                    execution.label,
                )
        setup_s = self._cohort_setup_s
        assert setup_s is not None  # set alongside every memo entry
        outcomes: list[SystemOutcome] = []
        for seed in seeds:
            values, demand, records, label = memo[(input_index, seed)]
            execution = ExecutionResult(
                counters=PerfCounters(*values),
                demand=demand,
                epoch_records=records,
                label=label,
            )
            outcomes.append(self._outcome(input_index, seed, setup_s, execution))
        return outcomes

    def _invoke_each(
        self, input_index: int, seeds: Sequence[int]
    ) -> list[SystemOutcome]:
        """The per-seed invoke loop, its traces synthesised ahead."""
        with self.function.prefetch(input_index, seeds, root_seed=self.root_seed):
            return [self.invoke(input_index, s) for s in seeds]

    def _trace(self, input_index: int, seed: int):
        return self.function.trace(input_index, seed, root_seed=self.root_seed)

    def _outcome(
        self, input_index: int, seed: int, setup_time_s: float, execution
    ) -> SystemOutcome:
        return SystemOutcome(
            system=self.name,
            input_index=input_index,
            seed=seed,
            setup_time_s=setup_time_s,
            execution=execution,
        )
