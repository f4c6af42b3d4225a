"""End-to-end serverless platform simulation.

Ties the pieces together the way a provider would: functions are deployed
onto a platform, requests arrive on a schedule, each request is served by
the function's TOSS controller (walking it through initial execution,
profiling, and tiered serving), cores are a finite resource, and every
request is billed through the pricing model.

Under load the platform is guarded by the overload-resilience layer
(:mod:`repro.platform.overload`): bounded admission with priority
classes, per-request deadlines, per-function circuit breakers, and a
platform-wide degradation ladder.  Host memory admission
(:class:`~repro.platform.capacity.HostCapacity`) is consulted per
request when a capacity budget is attached.  Both are opt-in: a platform
constructed without them — or with the all-permissive
:class:`~repro.platform.overload.OverloadConfig` — serves byte-identically
to the unguarded platform.

This is the integration surface — the per-figure experiments drive the
lower layers directly.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterator

from .. import config, faults as faults_mod
from ..core.telemetry import EventKind, TelemetryEvent, TelemetryLog
from ..core.toss import InvocationOutcome, Phase, TossConfig, TossController
from ..errors import FaultInjected, SchedulerError
from ..functions.base import FunctionModel
from ..memsim.tiers import DEFAULT_MEMORY_SYSTEM, MemorySystem
from ..obs import runtime as obs_runtime
from ..obs.spans import SpanStatus
from ..pricing.billing import TieredBill, bill_invocation
from ..trace import pool as trace_pool
from ..vm.microvm import MicroVM
from .capacity import HostCapacity, ResidentVM
from .keepalive import KeepAliveCache
from .overload import (
    BreakerState,
    CircuitBreaker,
    HealthState,
    OverloadConfig,
    OverloadPolicy,
    RequestClass,
    RequestShed,
    ShedReason,
)
from .prewarm import PrewarmPolicy
from ..sim.loop import (
    PRIORITY_ARRIVAL,
    PRIORITY_EMIT,
    PRIORITY_RELEASE,
    EventLoop,
)

__all__ = ["FunctionDeployment", "RequestLogEntry", "ServerlessPlatform"]

_ZERO_BILL = TieredBill(
    dram_cost=0.0, tiered_cost=0.0, slow_fraction=0.0, slowdown=1.0
)


@dataclass
class FunctionDeployment:
    """One deployed function and its TOSS controller."""

    function: FunctionModel
    controller: TossController
    invocations: int = 0


@dataclass(frozen=True, slots=True)
class RequestLogEntry:
    """One served request."""

    function: str
    input_index: int
    arrival_s: float
    start_s: float
    finish_s: float
    phase: Phase
    setup_time_s: float
    exec_time_s: float
    bill: TieredBill
    retries: int = 0
    """Faulted snapshot reads recovered by retry while serving this request."""
    failures: int = 0
    """Restore failures absorbed (served via fallback) for this request."""
    degraded: bool = False
    """Served in degraded mode (fallback restore or tier backpressure)."""
    failed: bool = False
    """The request could not be served at all (unrecoverable fault)."""
    request_class: str = "latency"
    """Priority class: ``"latency"`` (never shed) or ``"batch"``."""
    deadline_s: float | None = None
    """Absolute deadline, when the overload layer enforces SLOs."""
    shed: bool = False
    """Rejected at admission (bounded queue, capacity, deadline, breaker)."""
    shed_reason: str = ""
    """The :class:`~repro.platform.overload.ShedReason` value, when shed."""
    aborted: bool = False
    """A tiered restore was aborted mid-setup to protect the deadline."""

    @property
    def queue_delay_s(self) -> float:
        """Time spent waiting for a free core."""
        return self.start_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """Arrival-to-finish latency."""
        return self.finish_s - self.arrival_s

    @property
    def deadline_met(self) -> bool:
        """Finished by the deadline (vacuously true with no deadline)."""
        if self.deadline_s is None:
            return True
        return not self.shed and not self.failed and self.finish_s <= self.deadline_s


class ServerlessPlatform:
    """A core-limited platform serving request streams through TOSS."""

    def __init__(
        self,
        *,
        n_cores: int = 20,
        memory: MemorySystem = DEFAULT_MEMORY_SYSTEM,
        toss_cfg: TossConfig | None = None,
        keepalive: "KeepAliveCache | None" = None,
        prewarm: "PrewarmPolicy | None" = None,
        faults: "faults_mod.FaultInjector | None" = None,
        telemetry: TelemetryLog | None = None,
        overload: "OverloadPolicy | OverloadConfig | None" = None,
        capacity: "HostCapacity | None" = None,
    ) -> None:
        if n_cores < 1:
            raise SchedulerError("need at least one core")
        self.n_cores = n_cores
        self.faults = faults
        if faults is not None and memory.fault_hook is None:
            memory = memory.with_fault_hook(faults)
        self.memory = memory
        self.toss_cfg = toss_cfg if toss_cfg is not None else TossConfig()
        self.keepalive = keepalive
        self.prewarm = prewarm
        self.telemetry = telemetry
        if isinstance(overload, OverloadConfig):
            overload = OverloadPolicy(overload)
        self.overload = overload
        self.capacity = capacity
        self.span_prefix = ""
        """Prefix for every span/trace-event name this platform records
        (e.g. ``"host3/"`` when serving as one host of a cluster fleet).
        Empty by default, which keeps single-host traces byte-identical."""
        self._capacity_leases: list[tuple[float, str]] = []
        self.deployments: dict[str, FunctionDeployment] = {}
        self.log: list[RequestLogEntry] = []

    # -- deployment ------------------------------------------------------------

    def deploy(self, function: FunctionModel) -> FunctionDeployment:
        """Register a function; idempotent per name."""
        if function.name not in self.deployments:
            self.deployments[function.name] = FunctionDeployment(
                function=function,
                controller=TossController(
                    function,
                    memory=self.memory,
                    cfg=self.toss_cfg,
                    telemetry=self.telemetry,
                    faults=self.faults,
                ),
            )
        return self.deployments[function.name]

    # -- request validation ------------------------------------------------------

    def _validated_requests(
        self, requests: list[tuple]
    ) -> list[tuple[float, str, int, RequestClass]]:
        """Validate and normalise request tuples before any serving starts.

        Accepts ``(arrival_s, function_name, input_index)`` with an
        optional fourth priority-class element (a
        :class:`~repro.platform.overload.RequestClass` or its string
        value, default latency).  A malformed tuple fails the whole batch
        up front with a :class:`~repro.errors.SchedulerError` naming the
        offending request — nothing is partially served.
        """
        normalized: list[tuple[float, str, int, RequestClass]] = []
        for req in requests:
            if len(req) == 3:
                arrival, name, input_index = req
                req_class = RequestClass.LATENCY
            elif len(req) == 4:
                arrival, name, input_index, req_class = req
                if not isinstance(req_class, RequestClass):
                    try:
                        req_class = RequestClass(req_class)
                    except ValueError:
                        raise SchedulerError(
                            f"request {tuple(req)!r}: unknown request class "
                            f"{req_class!r} (expected 'latency' or 'batch')"
                        ) from None
            else:
                raise SchedulerError(
                    f"malformed request tuple {tuple(req)!r}: expected "
                    "(arrival_s, function_name, input_index[, class])"
                )
            if name not in self.deployments:
                raise SchedulerError(f"function {name!r} not deployed")
            if arrival < 0:
                raise SchedulerError(
                    f"request {(arrival, name, input_index)!r}: arrival time "
                    "must be non-negative"
                )
            n_inputs = self.deployments[name].function.n_inputs
            if not 0 <= input_index < n_inputs:
                raise SchedulerError(
                    f"request {(arrival, name, input_index)!r}: input_index "
                    f"outside 0..{n_inputs - 1}"
                )
            normalized.append((float(arrival), name, int(input_index), req_class))
        normalized.sort(key=lambda r: (r[0], r[1], r[2], r[3].value))
        return normalized

    # -- serving ----------------------------------------------------------------

    def serve(
        self,
        requests: list[tuple],
    ) -> list[RequestLogEntry]:
        """Serve ``(arrival_s, function_name, input_index[, class])`` requests.

        Requests queue for cores FIFO per arrival order, ties broken by
        ``(function_name, input_index)`` so equal-arrival batches replay
        identically regardless of the input list's order; each request is
        served to completion on one core (vCPU pinning, no preemption).
        Injected faults that even the controller's fallback chain cannot
        absorb fail only the one request (logged with ``failed=True``) —
        the platform itself keeps serving.

        With an overload policy attached, every request first passes
        admission (bounded queue depth/delay, degradation-ladder state,
        deadline feasibility, circuit breaker, host capacity); rejected
        requests are *logged* with ``shed=True`` — never silently queued
        forever — and batch-class traffic is shed before latency-class
        traffic is ever degraded.  Returns the log entries appended for
        this batch.

        The batch runs on the event kernel (:mod:`repro.sim`): arrivals,
        queue-slot and capacity-lease expiries, and telemetry emissions
        are all events on one deterministic ``(time, priority, seq)``
        timeline.  Bookkeeping events carry
        :data:`~repro.sim.loop.PRIORITY_RELEASE`, so state that ended *by*
        an arrival's instant is gone before its admission decision — the
        event replay of the old "pop everything ``<= arrival``" scans.
        Telemetry emissions carry :data:`~repro.sim.loop.PRIORITY_EMIT`
        and fire at their simulated timestamps (a breaker transition
        observed at a request's *finish* is emitted at that finish, not at
        the arrival that computed it), so shed/breaker/health events land
        in the log in nondecreasing simulated-time order.
        """
        normalized = self._validated_requests(requests)
        cores = [0.0] * self.n_cores
        heapq.heapify(cores)
        batch: list[RequestLogEntry] = []
        ov = self.overload
        track = ov is not None or self.capacity is not None
        loop = EventLoop()
        obs = obs_runtime.active()
        if obs is not None:
            obs.wire_loop(loop)
        pending_started = {"n": 0}
        fn_inflight: dict[str, int] = {}
        outstanding_leases: dict[object, tuple[float, str]] = {}

        # Deferred emissions share one callback and one payload heap
        # instead of allocating a closure (plus captured cells) per
        # emission.  The loop fires emit-category events in
        # ``(time, PRIORITY_EMIT, loop-seq)`` order; the payload heap is
        # keyed ``(time, emit-seq)`` with both sequence counters assigned
        # together at defer time, so the pop at each firing is exactly
        # that firing's payload — asserted empty after the final drain.
        emit_heap: list[tuple[float, int, tuple]] = []
        emit_seq = 0

        def _fire_emit(_now: float) -> None:
            _, _, (kind, function, invocation, at_s, detail) = heapq.heappop(
                emit_heap
            )
            self._emit_platform_event(
                kind, function, invocation, at_s=at_s, **detail
            )

        def defer_emit(
            when_s: float,
            kind: EventKind,
            function: str,
            invocation: int,
            at_s: float | None = None,
            **detail,
        ) -> None:
            """Emit telemetry as an event at ``when_s`` (now, if already past).

            Detail values are captured eagerly — the emission observes the
            state at decision time, only its position on the timeline moves.
            """
            nonlocal emit_seq
            if self.telemetry is None and obs is None:
                return
            when = max(float(when_s), loop.now)
            heapq.heappush(
                emit_heap,
                (when, emit_seq, (kind, function, invocation, at_s, detail)),
            )
            emit_seq += 1
            loop.schedule_at(
                when, _fire_emit, priority=PRIORITY_EMIT, category="emit"
            )

        def queue_slot(start: float) -> None:
            """Count a granted request as queued until its start fires."""
            pending_started["n"] += 1

            def _fire(_now: float) -> None:
                pending_started["n"] -= 1

            loop.schedule_at(
                start, _fire, priority=PRIORITY_RELEASE, category="release"
            )

        def inflight_slot(name: str, finish: float) -> None:
            """Count a request against its function until it finishes."""
            fn_inflight[name] = fn_inflight.get(name, 0) + 1

            def _fire(_now: float) -> None:
                fn_inflight[name] -= 1

            loop.schedule_at(
                finish, _fire, priority=PRIORITY_RELEASE, category="release"
            )

        def lease_slot(finish: float, lease_name: str) -> None:
            """Hold host memory until the VM's finish event releases it."""
            token = object()
            outstanding_leases[token] = (finish, lease_name)

            def _fire(_now: float) -> None:
                del outstanding_leases[token]
                self.capacity.release(lease_name)

            loop.schedule_at(
                finish, _fire, priority=PRIORITY_RELEASE, category="release"
            )

        # Leases carried over from earlier batches expire as events too.
        carried = self._capacity_leases
        self._capacity_leases = []
        for finish, lease_name in sorted(carried):
            lease_slot(finish, lease_name)

        def handle_arrival(
            arrival: float, name: str, input_index: int, req_class: RequestClass
        ) -> None:
            dep = self.deployments[name]
            force_fallback = False
            setup_budget_s: float | None = None
            deadline_s: float | None = None
            shed_reason: ShedReason | None = None
            probe_breaker: CircuitBreaker | None = None
            queue_delay_s = max(0.0, cores[0] - arrival)
            if ov is not None:
                pressure = (
                    self.capacity.fast_pressure if self.capacity is not None else 0.0
                )
                for at_s, old, new in ov.ladder.update(
                    arrival,
                    queue_delay_s=queue_delay_s,
                    capacity_pressure=pressure,
                ):
                    defer_emit(
                        at_s,
                        EventKind.HEALTH_TRANSITION,
                        "platform",
                        len(self.log) + len(batch),
                        at_s=round(at_s, 6),
                        from_state=old.name,
                        to_state=new.name,
                        queue_delay_ewma_s=round(ov.ladder.delay_ewma_s, 6),
                        fault_rate=round(ov.ladder.fault_rate, 4),
                    )
                self._apply_ladder_effects(ov)
                shed_reason = ov.admission_limit_hit(
                    queue_depth=pending_started["n"],
                    queue_delay_s=queue_delay_s,
                    function_depth=fn_inflight.get(name, 0),
                )
                if shed_reason is not None and req_class is RequestClass.LATENCY:
                    # Latency traffic is never shed by an admission limit:
                    # it is forced onto the cheap all-DRAM fallback path so
                    # the queue drains instead of growing.
                    force_fallback = True
                    shed_reason = None
                if (
                    shed_reason is None
                    and ov.ladder.shed_batch
                    and req_class is RequestClass.BATCH
                ):
                    shed_reason = ShedReason.SHEDDING
                deadline_s = ov.deadline_for(
                    arrival,
                    config.VM_STATE_LOAD_S + self._baseline_s(dep, input_index),
                )
                if shed_reason is None and deadline_s is not None:
                    earliest_finish = (
                        max(arrival, cores[0])
                        + config.VM_STATE_LOAD_S
                        + self._baseline_s(dep, input_index)
                    )
                    if earliest_finish > deadline_s:
                        # Hopeless before it starts: the queue alone blows
                        # the deadline.  Batch is shed; latency is served
                        # on the cheapest path we have.
                        if req_class is RequestClass.BATCH:
                            shed_reason = ShedReason.DEADLINE
                        else:
                            force_fallback = True
                if shed_reason is None:
                    breaker = ov.breaker_for(name)
                    if breaker is not None:
                        for old, new, why in breaker.poll(arrival):
                            self._emit_breaker_transition(
                                defer_emit, name, old, new, why, arrival
                            )
                        if breaker.state is BreakerState.OPEN:
                            if (
                                ov.config.breaker_fail_fast
                                and req_class is RequestClass.BATCH
                            ):
                                shed_reason = ShedReason.BREAKER_OPEN
                            else:
                                force_fallback = True
                        elif breaker.state is BreakerState.HALF_OPEN:
                            # Half-open admits exactly one in-flight probe
                            # onto the recovering tiered path; concurrent
                            # requests take the same fallback/shed exits
                            # as while open instead of stampeding it.
                            would_probe = (
                                not force_fallback
                                and not ov.ladder.force_fallback
                                and dep.controller.phase is Phase.TIERED
                            )
                            if would_probe and breaker.try_acquire_probe():
                                probe_breaker = breaker
                            elif would_probe:
                                if (
                                    ov.config.breaker_fail_fast
                                    and req_class is RequestClass.BATCH
                                ):
                                    shed_reason = ShedReason.BREAKER_OPEN
                                else:
                                    force_fallback = True
                if ov.ladder.force_fallback:
                    force_fallback = True
                if shed_reason is not None:
                    self._shed_request(
                        batch,
                        name=name,
                        input_index=input_index,
                        arrival=arrival,
                        req_class=req_class,
                        reason=shed_reason,
                        deadline_s=deadline_s,
                        queue_delay_s=queue_delay_s,
                        emit=defer_emit,
                    )
                    return
                if deadline_s is not None and not force_fallback:
                    setup_budget_s = max(
                        0.0,
                        deadline_s
                        - max(arrival, cores[0])
                        - self._baseline_s(dep, input_index),
                    )
            lease_name: str | None = None
            if self.capacity is not None:
                vm = self._resident_footprint(dep, len(self.log) + len(batch))
                if not self.capacity.admit(vm):
                    # Host memory admission: a full host rejects the VM —
                    # a shed decision, not an error.  A half-open probe
                    # that never ran returns its slot.
                    if probe_breaker is not None:
                        probe_breaker.release_probe()
                    self._shed_request(
                        batch,
                        name=name,
                        input_index=input_index,
                        arrival=arrival,
                        req_class=req_class,
                        reason=ShedReason.CAPACITY,
                        deadline_s=deadline_s,
                        queue_delay_s=queue_delay_s,
                        emit=defer_emit,
                    )
                    return
                lease_name = vm.name
            free_at = heapq.heappop(cores)
            start = max(arrival, free_at)
            span = None
            if obs is not None:
                # Request starts are nondecreasing (the core heap's minima
                # are), so re-anchoring the cursor at each start keeps the
                # controller's child spans on the request's timeline.
                obs.tracer.seek(start)
                span = obs.tracer.start_span(
                    f"{self.span_prefix}request/{name}",
                    start_s=arrival,
                    attrs={
                        "function": name,
                        "input_index": input_index,
                        "class": req_class.value,
                    },
                )
                if start > arrival:
                    obs.tracer.event(
                        "queue-wait",
                        at_s=start,
                        attrs={"wait_s": start - arrival},
                    )
                obs.metrics.histogram(
                    "toss_queue_delay_seconds",
                    "Seconds requests waited for a free core",
                ).observe(start - arrival)
            if self.faults is not None:
                # Time-windowed faults (outages, backpressure) key off the
                # moment the restore actually begins.
                self.faults.advance_to(start)
            attempted_tiered = (
                not force_fallback and dep.controller.phase is Phase.TIERED
            )
            try:
                if force_fallback or setup_budget_s is not None:
                    outcome = self._invoke(
                        dep,
                        input_index,
                        setup_budget_s=setup_budget_s,
                        force_fallback=force_fallback,
                    )
                else:
                    outcome = self._invoke(dep, input_index)
            except FaultInjected as exc:
                # The failed attempt consumed no simulated time: the core
                # is returned at its true free time, and the entry records
                # how long the request actually waited for it.
                heapq.heappush(cores, free_at)
                if span is not None:
                    span.attrs["error"] = type(exc).__name__
                    obs.tracer.end_span(span, end_s=start, status=SpanStatus.ERROR)
                if lease_name is not None:
                    self.capacity.release(lease_name)
                self._emit_platform_event(
                    EventKind.FALLBACK_RESTORE,
                    name,
                    dep.invocations,
                    error=type(exc).__name__,
                    unserved=True,
                    free_at_s=round(free_at, 6),
                    queue_delay_s=round(start - arrival, 6),
                )
                if ov is not None:
                    ov.ladder.note_outcome(True)
                    if attempted_tiered:
                        breaker = ov.breaker_for(name)
                        if breaker is not None:
                            for old, new, why in breaker.record_outcome(False, start):
                                self._emit_breaker_transition(
                                    defer_emit, name, old, new, why, start
                                )
                batch.append(
                    RequestLogEntry(
                        function=name,
                        input_index=input_index,
                        arrival_s=arrival,
                        start_s=start,
                        finish_s=start,
                        phase=dep.controller.phase,
                        setup_time_s=0.0,
                        exec_time_s=0.0,
                        bill=_ZERO_BILL,
                        failures=1,
                        failed=True,
                        request_class=req_class.value,
                        deadline_s=deadline_s,
                    )
                )
                if obs is not None and obs.slo is not None:
                    obs.slo.observe_request(start, good=False)
                    obs.slo.observe_signal(
                        "queue_delay_s", start - arrival, start
                    )
                    obs.slo.observe_signal("fault_rate", 1.0, start)
                return
            dep.invocations += 1
            setup_hidden = False
            # Predictive pre-warming hides the restore of a correctly
            # anticipated tiered invocation (Section VI-A: "TOSS can load
            # the VM before the predicted function execution").
            if self.prewarm is not None:
                # Only tiered restores can be pre-launched.
                hidden = (
                    outcome.phase is Phase.TIERED
                    and self.prewarm.would_hide_setup(
                        name, arrival, outcome.setup_time_s
                    )
                )
                self.prewarm.observe(name, arrival)
                if hidden:
                    setup_hidden = True
                    outcome = replace(outcome, setup_time_s=0.0)
            finish = start + outcome.total_time_s
            heapq.heappush(cores, finish)
            if track:
                queue_slot(start)
                inflight_slot(name, finish)
            if lease_name is not None:
                lease_slot(finish, lease_name)
            bill = bill_invocation(
                guest_mb=dep.function.guest_mb,
                duration_s=outcome.total_time_s,
                slow_fraction=outcome.slow_fraction,
                # Fallback-served requests ran all-DRAM (slow_fraction 0):
                # they are billed as DRAM invocations with no slowdown.
                slowdown=(
                    dep.controller.analysis.expected_slowdown
                    if outcome.phase is Phase.TIERED
                    and outcome.slow_fraction > 0
                    and dep.controller.analysis
                    else 1.0
                ),
                memory=self.memory,
            )
            batch.append(
                RequestLogEntry(
                    function=name,
                    input_index=input_index,
                    arrival_s=arrival,
                    start_s=start,
                    finish_s=finish,
                    phase=outcome.phase,
                    setup_time_s=outcome.setup_time_s,
                    exec_time_s=outcome.exec_time_s,
                    bill=bill,
                    retries=outcome.retries,
                    failures=outcome.failures,
                    degraded=outcome.degraded,
                    request_class=req_class.value,
                    deadline_s=deadline_s,
                    aborted=outcome.aborted,
                )
            )
            if obs is not None and obs.slo is not None:
                obs.slo.observe_request(finish, good=True)
                obs.slo.observe_signal(
                    "queue_delay_s", start - arrival, start
                )
                obs.slo.observe_signal("fault_rate", 0.0, finish)
                obs.slo.observe_signal(
                    "restore_setup_s", outcome.setup_time_s, finish
                )
            if span is not None:
                span.attrs["phase"] = outcome.phase.value
                span.attrs["setup_s"] = outcome.setup_time_s
                span.attrs["exec_s"] = outcome.exec_time_s
                span.attrs["degraded"] = outcome.degraded
                if setup_hidden:
                    # Prewarm hid the restore: the controller's child spans
                    # still show the setup work, so they overrun the
                    # request's billed window by design.
                    span.attrs["setup_hidden"] = True
                obs.tracer.end_span(span, end_s=finish)
            if ov is not None:
                failed_signal = outcome.failures > 0 or outcome.aborted
                ov.ladder.note_outcome(failed_signal)
                if attempted_tiered:
                    breaker = ov.breaker_for(name)
                    if breaker is not None:
                        for old, new, why in breaker.record_outcome(
                            not failed_signal, finish
                        ):
                            self._emit_breaker_transition(
                                defer_emit, name, old, new, why, finish
                            )

        # One shared callback drains the (sorted) request list instead of
        # one closure per request: arrival events fire in (time, seq)
        # order, and seq order is insertion order, so the pop sequence
        # matches the firing sequence exactly.
        pending_arrivals = deque(normalized)

        def _next_arrival(_now: float) -> None:
            request = pending_arrivals.popleft()
            ahead.expect(self._expected_traces(request, pending_arrivals))
            handle_arrival(*request)

        loop.schedule_batch(
            [r[0] for r in normalized],
            _next_arrival,
            priority=PRIORITY_ARRIVAL,
            category="arrival",
        )
        # Stop once the last arrival has been decided: leases that expire
        # past the batch must survive into the next serve() call.
        with trace_pool.lookahead(
            min_draws=trace_pool.SERIAL_MIN_DRAWS
        ) as ahead:
            loop.run_while_category("arrival")
        # Flush telemetry stamped past the final arrival, in time order.
        loop.drain_category("emit")
        # Micro-assert: the shared emit callback consumed its payloads in
        # exactly the loop's firing order — batched scheduling emitted the
        # same events, in the same order, as per-closure scheduling would.
        assert not emit_heap, "deferred telemetry left unfired"
        self._capacity_leases = sorted(outstanding_leases.values())
        heapq.heapify(self._capacity_leases)
        self.log.extend(batch)
        return batch

    def _expected_traces(
        self, request: tuple, upcoming: "deque[tuple]"
    ) -> Iterator[tuple]:
        """Trace keys of ``request`` and the next few ``upcoming`` ones.

        Each request is assumed to run after the earlier requests of its
        deployment in the window, on its controller's next seed — or, for
        a function kept warm, on the deployment's invocation count, as a
        keep-alive warm start does.  A wrong guess (a shed or failed
        request, a keep-alive entry that comes or goes) drops out of the
        next arrival's window and is discarded.
        """
        offsets: dict[str, int] = {}
        for _, name, input_index, _ in itertools.chain(
            (request,), itertools.islice(upcoming, trace_pool.LOOKAHEAD_DEPTH)
        ):
            dep = self.deployments[name]
            ctl = dep.controller
            warm = (
                self.keepalive is not None
                and ctl.phase is Phase.TIERED
                and name in self.keepalive
            )
            offset = offsets.get(name, 0)
            offsets[name] = offset + 1
            seed = (dep.invocations if warm else ctl.next_seed) + offset
            yield dep.function, input_index, seed, ctl.cfg.root_seed

    # -- overload helpers --------------------------------------------------------

    def _baseline_s(self, dep: FunctionDeployment, input_index: int) -> float:
        """The input's warm all-DRAM execution time (deadline basis)."""
        return dep.function.input_spec(input_index).t_dram_s

    def _resident_footprint(self, dep: FunctionDeployment, seq: int) -> ResidentVM:
        """Memory this request's VM pins on the host, by current phase."""
        guest = float(dep.function.guest_mb)
        ctl = dep.controller
        sf = ctl.slow_fraction if ctl.phase is Phase.TIERED else 0.0
        fast = max(guest * (1.0 - sf), 1e-3)
        return ResidentVM(f"{dep.function.name}@{seq}", fast, guest * sf)

    def _apply_ladder_effects(self, ov: OverloadPolicy) -> None:
        """Enforce the current health state on prewarm and keep-alive."""
        state = ov.ladder.state
        if self.prewarm is not None:
            self.prewarm.enabled = state < HealthState.PRESSURED
        if self.keepalive is not None:
            if state >= HealthState.DEGRADED:
                self.keepalive.shrink_to(0.0)
            elif state is HealthState.PRESSURED:
                self.keepalive.shrink_to(
                    self.keepalive.capacity_mb
                    * ov.config.keepalive_pressure_fraction
                )

    def _shed_request(
        self,
        batch: list[RequestLogEntry],
        *,
        name: str,
        input_index: int,
        arrival: float,
        req_class: RequestClass,
        reason: ShedReason,
        deadline_s: float | None,
        queue_delay_s: float,
        emit,
    ) -> None:
        """Record one typed shed decision (log entry + policy + telemetry).

        ``emit`` is the serve loop's deferred emitter: the shed event is
        stamped — and emitted — at the arrival that made the decision."""
        dep = self.deployments[name]
        if self.overload is not None:
            self.overload.record_shed(
                RequestShed(
                    function=name,
                    input_index=input_index,
                    arrival_s=arrival,
                    request_class=req_class,
                    reason=reason,
                )
            )
        emit(
            arrival,
            EventKind.REQUEST_SHED,
            name,
            dep.invocations,
            reason=reason.value,
            request_class=req_class.value,
            queue_delay_s=round(queue_delay_s, 6),
            at_s=round(arrival, 6),
        )
        batch.append(
            RequestLogEntry(
                function=name,
                input_index=input_index,
                arrival_s=arrival,
                start_s=arrival,
                finish_s=arrival,
                phase=dep.controller.phase,
                setup_time_s=0.0,
                exec_time_s=0.0,
                bill=_ZERO_BILL,
                request_class=req_class.value,
                deadline_s=deadline_s,
                shed=True,
                shed_reason=reason.value,
            )
        )
        obs = obs_runtime.active()
        if obs is not None:
            obs.tracer.record(
                f"{self.span_prefix}request/{name}",
                0.0,
                start_s=arrival,
                attrs={
                    "function": name,
                    "input_index": input_index,
                    "class": req_class.value,
                    "shed_reason": reason.value,
                },
                status=SpanStatus.ABORTED,
            )
            obs.metrics.counter(
                "toss_requests_shed_total",
                "Requests rejected at admission, by shed reason",
            ).inc(reason=reason.value)
            obs.metrics.histogram(
                "toss_queue_delay_seconds",
                "Seconds requests waited for a free core",
            ).observe(queue_delay_s)
            if obs.slo is not None:
                # Admission sheds are deliberate policy, not SLI errors
                # (availability() excludes them) — only the queue-delay
                # signal feeds the anomaly detector.
                obs.slo.observe_signal(
                    "queue_delay_s", queue_delay_s, arrival
                )

    def _emit_breaker_transition(
        self,
        emit,
        name: str,
        old: BreakerState,
        new: BreakerState,
        why: str,
        at_s: float,
    ) -> None:
        """Defer a breaker-transition emission to its simulated timestamp.

        The breaker *state* changes eagerly (the next admission decision
        must see it); only the telemetry record rides the timeline, so a
        transition observed at a finish appears in the log at that finish.
        """
        emit(
            at_s,
            EventKind.BREAKER_TRANSITION,
            name,
            self.deployments[name].invocations,
            from_state=old.value,
            to_state=new.value,
            reason=why,
            at_s=round(at_s, 6),
        )

    def _emit_platform_event(
        self,
        kind: EventKind,
        function: str,
        invocation: int,
        at_s: float | None = None,
        **detail,
    ) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(
                TelemetryEvent(
                    kind=kind,
                    function=function,
                    invocation=invocation,
                    detail=detail,
                    at_s=at_s,
                )
            )
        obs = obs_runtime.active()
        if obs is not None:
            # Deferred emissions fire between requests (empty span stack),
            # so these land as trace-level instants in the export.
            attrs = {"function": function, "invocation": invocation, **detail}
            if at_s is not None:
                attrs["at_s"] = at_s
            obs.tracer.event(
                f"{self.span_prefix}telemetry/{kind.value}", attrs=attrs
            )

    # -- keep-alive integration ----------------------------------------------------

    def _invoke(
        self,
        dep: FunctionDeployment,
        input_index: int,
        *,
        setup_budget_s: float | None = None,
        force_fallback: bool = False,
    ):
        """Serve one invocation, warm-starting from the keep-alive cache
        when possible (Section VI-A: "TOSS can keep the VM alive on both
        tiers until evicted").

        ``force_fallback`` short-circuits straight to the controller's
        all-DRAM lazy path (open breaker / DEGRADED platform);
        ``setup_budget_s`` bounds the tiered restore's setup time for
        deadline enforcement."""
        ctl = dep.controller
        if force_fallback:
            return ctl.invoke_fallback(input_index)
        if (
            self.keepalive is not None
            and ctl.phase is Phase.TIERED
            and self.keepalive.lookup(dep.function.name)
        ):
            # Warm tiered start: the VM is resident on both tiers, so no
            # restore happens — execution still pays slow-tier latency.
            snapshot = ctl.tiered_snapshot
            if snapshot is None:
                # A stale keep-alive entry outlived its tiered snapshot
                # (e.g. dropped after a degradation); the cache must not
                # keep advertising a VM that cannot exist.
                self.keepalive.invalidate(dep.function.name)
                raise SchedulerError(
                    f"keep-alive cache holds {dep.function.name!r} but the "
                    "controller has no tiered snapshot; stale entry evicted"
                )
            vm = MicroVM(
                dep.function.n_pages,
                memory=self.memory,
                placement=snapshot.placement(),
                page_versions=snapshot.base.page_versions,
            )
            trace = dep.function.trace(
                input_index, dep.invocations, root_seed=ctl.cfg.root_seed
            )
            result = vm.execute(trace)
            ctl.reprofile.observe(result.time_s)
            outcome = InvocationOutcome(
                phase=Phase.TIERED,
                input_index=input_index,
                seed=dep.invocations,
                setup_time_s=0.0,
                exec_time_s=result.time_s,
                slow_fraction=snapshot.slow_fraction,
            )
        else:
            outcome = ctl.invoke(input_index, setup_budget_s=setup_budget_s)
        if (
            self.keepalive is not None
            and ctl.phase is Phase.TIERED
            and ctl.tiered_snapshot is not None
        ):
            snapshot = ctl.tiered_snapshot
            self.keepalive.admit(
                dep.function.name,
                fast_mb=max(
                    1e-3, dep.function.guest_mb * (1.0 - snapshot.slow_fraction)
                ),
                init_cost_s=max(outcome.setup_time_s, config.VM_STATE_LOAD_S),
            )
        return outcome

    # -- reporting ---------------------------------------------------------------

    def total_billed(self) -> float:
        """Total tiered bill across the log."""
        return sum(e.bill.tiered_cost for e in self.log)

    def total_dram_billed(self) -> float:
        """What the same log would have cost on DRAM-only plans."""
        return sum(e.bill.dram_cost for e in self.log)

    def savings_fraction(self) -> float:
        """Fraction of the DRAM-only bill saved by tiering."""
        dram = self.total_dram_billed()
        if dram == 0:
            return 0.0
        return 1.0 - self.total_billed() / dram

    # -- reliability metrics ----------------------------------------------------

    def availability(self) -> float:
        """Fraction of admitted requests actually served (1.0 with no log).

        A request counts as served even when it needed retries or a
        fallback restore — only ``failed`` entries (faults the whole
        recovery chain could not absorb) reduce availability.  Shed
        requests are deliberate admission decisions, tracked separately
        by :meth:`shed_fraction`, and do not count against availability.
        """
        admitted = [e for e in self.log if not e.shed]
        if not admitted:
            return 1.0
        served = sum(1 for e in admitted if not e.failed)
        return served / len(admitted)

    def total_shed(self) -> int:
        """Requests rejected at admission across the log."""
        return sum(1 for e in self.log if e.shed)

    def shed_fraction(self) -> float:
        """Share of all submitted requests that were shed."""
        if not self.log:
            return 0.0
        return self.total_shed() / len(self.log)

    def batch_shed_fraction(self) -> float:
        """Share of batch-class requests that were shed (0 with none)."""
        batch = [e for e in self.log if e.request_class == RequestClass.BATCH.value]
        if not batch:
            return 0.0
        return sum(1 for e in batch if e.shed) / len(batch)

    def deadline_misses(self) -> list[RequestLogEntry]:
        """Deadline-carrying requests that finished late on the full
        tiered path (fallback-served requests already took the escape
        hatch and are not misses)."""
        return [
            e
            for e in self.log
            if e.deadline_s is not None
            and not e.shed
            and not e.failed
            and not e.degraded
            and e.finish_s > e.deadline_s
        ]

    @property
    def health_state(self) -> "HealthState | None":
        """Current degradation-ladder state (None without a policy)."""
        if self.overload is None:
            return None
        return self.overload.ladder.state

    def degraded_time_s(self) -> float:
        """Busy time (setup + execution) spent serving in degraded mode."""
        return sum(
            e.setup_time_s + e.exec_time_s for e in self.log if e.degraded
        )

    def degraded_fraction(self) -> float:
        """Share of total busy time that was served degraded."""
        total = sum(e.setup_time_s + e.exec_time_s for e in self.log)
        if total == 0:
            return 0.0
        return self.degraded_time_s() / total

    def total_retries(self) -> int:
        """Faulted reads recovered by retry across the log."""
        return sum(e.retries for e in self.log)

    def total_failures(self) -> int:
        """Restore failures absorbed (fallback-served) plus failed requests."""
        return sum(e.failures for e in self.log)
