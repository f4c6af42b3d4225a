"""Layer tracing from outside the simulator.

:class:`LayerTracer` wraps public functions of the ``repro`` package for
the duration of one traced run and records one span per call: name,
start, end, parent span and workload-run id.  It never touches
``repro.obs.runtime`` or the phase profiler, so the simulator takes the
same code paths (and produces the same outputs) traced or not.

A wrapped function is patched wherever the program looks it up: on its
own module or class *and* on every ``repro`` module that imported it by
name (``execute_cohort`` lives in ``repro.sim.batchexec`` but
``repro.baselines.base`` calls its own alias).  :meth:`LayerTracer.remove`
puts every original back and :meth:`LayerTracer.leftovers` proves none
of the wrappers survived.

Self time is a span's duration minus the part its child spans cover;
summed per layer it partitions the traced body's wall time, with the
remainder reported as ``bench.unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["LayerTracer", "TARGETS", "layer_metrics"]


@dataclass(frozen=True)
class Target:
    """One wrapped public call."""

    owner: str
    """``module`` or ``module:Class``."""
    attr: str
    span: str
    """Span name; the part before the dot is the layer."""


TARGETS: tuple[Target, ...] = (
    Target("repro.functions.base:FunctionModel", "trace", "trace.trace"),
    Target("repro.profiling.damon:DamonProfiler", "profile", "profiling.damon"),
    Target("repro.profiling.unified:UnifiedAccessPattern", "update", "profiling.unified"),
    Target("repro.core.analysis:ProfilingAnalyzer", "analyze", "core.analysis"),
    Target("repro.core.toss:TossController", "invoke", "core.invoke"),
    Target("repro.vm.vmm:VMM", "restore", "vm.vmm_restore"),
    Target("repro.vm.restore", "lazy_restore", "vm.restore"),
    Target("repro.vm.restore", "reap_restore", "vm.restore"),
    Target("repro.vm.restore", "tiered_restore", "vm.restore"),
    Target("repro.vm.microvm:MicroVM", "execute", "vm.execute"),
    Target("repro.vm.vmm:VMM", "capture_snapshot", "vm.snapshot"),
    Target("repro.vm.vmm:VMM", "capture_reap_snapshot", "vm.snapshot"),
    Target("repro.memsim.page_cache:HostPageCache", "fault_in", "memsim.page_cache"),
    # ``contended_times`` is on no serving path: it, ``inflation_factors``
    # and ``EventScheduler.run_synchronized`` all solve through ``_solve``.
    Target("repro.memsim.bandwidth:ContentionModel", "_solve", "memsim.contention"),
    Target("repro.sim.batchexec", "execute_cohort", "sim.cohort"),
    Target("repro.baselines.base:ServerlessSystem", "invoke_batch", "sim.invoke_batch"),
    Target("repro.sim.loop:EventLoop", "run", "sim.loop"),
    Target("repro.sim.loop:EventLoop", "run_while_category", "sim.loop"),
    Target("repro.sim.loop:EventLoop", "drain_category", "sim.loop"),
    Target("repro.platform.server:ServerlessPlatform", "serve", "platform.serve"),
    Target("repro.cluster.fleet:ClusterPlatform", "serve", "cluster.serve"),
    Target("repro.durability.scrub", "scrub_process", "durability.scrub"),
    Target("repro.durability.chunks", "chunk_digests", "durability.digest"),
    Target("repro.vm.snapshot", "checksum_pages", "durability.checksum"),
    Target("repro.obs.export", "prometheus_text", "obs.export"),
    Target("repro.obs.export", "perfetto_json", "obs.export"),
)


def _resolve(target: Target) -> Callable:
    """The original function a target names."""
    module_name, _, class_name = target.owner.partition(":")
    owner: Any = importlib.import_module(module_name)
    if class_name:
        return getattr(owner, class_name).__dict__[target.attr]
    return getattr(owner, target.attr)


def _repro_namespaces():
    """Every ``repro`` module and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("repro"):
                yield value


class LayerTracer:
    """Spans and counts for one traced process; see the module docstring."""

    def __init__(self) -> None:
        self.run_id = ""
        self.spans: list[list] = []
        """``[name, start, end, parent_index, run_id]`` in open order."""
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self.last_closed = -1
        self.fell_back: set[int] = set()
        """``sim.invoke_batch`` spans that ran a scalar execute."""
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self._originals: dict[int, tuple[Any, Callable]] = {}
        """``id(wrapper) -> (original, wrapper)``."""
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._child_time.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - wrappers always nest
            raise RuntimeError("span stack out of order")
        duration = end - span[1]
        name = span[0]
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - self._child_time[index]
        self.calls[name] = self.calls.get(name, 0) + 1
        if span[3] is not None:
            self._child_time[span[3]] += duration
        self.last_closed = index

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def reset(self, run_id: str) -> None:
        """Start a new workload run: spans and counters restart empty."""
        self.run_id = run_id
        self.spans = []
        self._child_time = []
        self.fell_back = set()
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self.samples = {}

    def write_spans(self, path: Path) -> None:
        """Append this run's spans to ``path`` as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as out:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                out.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "run": run_id}
                ) + "\n")

    # -- wrapping -------------------------------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            original = _resolve(target)
            wrapper = self._wrap(target.span, original)
            self._originals[id(wrapper)] = (original, wrapper)
            for namespace in _repro_namespaces():
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._patched.append((namespace, attr, original))

    def remove(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched = []
        # A module imported while the wrappers were live may have bound
        # one by name; put those back too.
        for namespace, attr, value in self._wrapper_bindings():
            setattr(namespace, attr, self._originals[id(value)][0])

    def _wrapper_bindings(self):
        for namespace in _repro_namespaces():
            for attr, value in list(vars(namespace).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[1] is value:
                    yield namespace, attr, value

    def leftovers(self) -> list[str]:
        """Names still bound to a wrapper (empty after :meth:`remove`)."""
        return [
            f"{getattr(ns, '__qualname__', getattr(ns, '__name__', ns))}.{attr}"
            for ns, attr, _ in self._wrapper_bindings()
        ]

    def _wrap(self, span: str, original: Callable) -> Callable:
        """A span-recording stand-in for ``original``; hooks are looked up
        by function name first, then by span name."""
        pre, post = _HOOKS.get(original.__name__) or _HOOKS.get(span, (None, None))
        tracer = self

        if inspect.isgeneratorfunction(original):
            # A simulated process: time each step the event loop takes.
            @functools.wraps(original)
            def process(*args, **kwargs):
                body = original(*args, **kwargs)
                while True:
                    index = tracer.open(span)
                    try:
                        command = next(body)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer.close(index)
                    yield command

            return process

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = pre(tracer, args, kwargs) if pre is not None else None
            index = tracer.open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if post is not None:
                post(tracer, args, kwargs, result, before)
            return result

        return wrapper


# -- per-call counters -------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


def _post_restore(tracer, args, kwargs, result, before) -> None:
    tracer.sample("vm.sim_setup_s", result.setup_time_s)


def _count_execution(tracer: LayerTracer, execution) -> None:
    c = execution.counters
    tracer.count("vm.major_faults", c.major_faults)
    tracer.count("vm.fast_accesses", c.fast_accesses)
    tracer.count("vm.slow_accesses", c.slow_accesses)


def _pre_execute(tracer, args, kwargs):
    # A scalar execute inside ``invoke_batch`` means the cohort fell back.
    for index in tracer._stack:
        if tracer.spans[index][0] == "sim.invoke_batch":
            tracer.fell_back.add(index)
    return None


def _post_execute(tracer, args, kwargs, result, before) -> None:
    _count_execution(tracer, result)


def _pre_fault_in(tracer, args, kwargs):
    return int(np.asarray(_arg(args, kwargs, 1, "pages")).size)


def _post_fault_in(tracer, args, kwargs, result, before) -> None:
    tracer.count("memsim.pages_requested", before)
    tracer.count("memsim.pages_missed", int(result))


def _pre_solve(tracer, args, kwargs):
    return args[0].solve_cache_hits


def _post_solve(tracer, args, kwargs, result, before) -> None:
    tracer.count("memsim.solve_memo_hits", args[0].solve_cache_hits - before)


def _post_cohort(tracer, args, kwargs, result, before) -> None:
    tracer.count("sim.cohort_invocations", len(result))
    for execution in result:
        _count_execution(tracer, execution)


def _pre_invoke_batch(tracer, args, kwargs):
    return (len(_arg(args, kwargs, 2, "seeds")),
            tracer.counts.get("sim.cohort_invocations", 0.0))


def _post_invoke_batch(tracer, args, kwargs, result, before) -> None:
    seeds, cohort_before = before
    if tracer.last_closed in tracer.fell_back:
        tracer.count("sim.scalar_fallbacks")
    else:
        executed = tracer.counts.get("sim.cohort_invocations", 0.0) - cohort_before
        tracer.count("sim.cohort_memo_hits", seeds - executed)


def _pre_loop(tracer, args, kwargs):
    return args[0].processed


def _post_loop(tracer, args, kwargs, result, before) -> None:
    tracer.count("sim.loop_events", args[0].processed - before)


def _post_platform(tracer, args, kwargs, result, before) -> None:
    tracer.count("platform.requests", len(result))
    tracer.count("platform.shed", sum(1 for e in result if e.shed))
    for entry in result:
        tracer.sample("platform.queue_delay_s", entry.queue_delay_s)


def _pre_cluster(tracer, args, kwargs):
    cluster = args[0]
    return cluster.total_redispatches, cluster.total_kills()


def _post_cluster(tracer, args, kwargs, result, before) -> None:
    cluster = args[0]
    tracer.count("cluster.redispatches", cluster.total_redispatches - before[0])
    tracer.count("cluster.kills", cluster.total_kills() - before[1])
    tracer.count("cluster.unaccounted", cluster.unaccounted())


def _post_analysis(tracer, args, kwargs, result, before) -> None:
    tracer.sample("core.slow_fraction", result.slow_fraction)


def _pre_perfetto(tracer, args, kwargs):
    tracer.count("obs.spans", len(_arg(args, kwargs, 0, "tracer").spans))
    return None


_HOOKS: dict[str, tuple[Callable | None, Callable | None]] = {
    "vm.restore": (None, _post_restore),
    "vm.execute": (_pre_execute, _post_execute),
    "memsim.page_cache": (_pre_fault_in, _post_fault_in),
    "memsim.contention": (_pre_solve, _post_solve),
    "sim.cohort": (None, _post_cohort),
    "sim.invoke_batch": (_pre_invoke_batch, _post_invoke_batch),
    "sim.loop": (_pre_loop, _post_loop),
    "platform.serve": (None, _post_platform),
    "cluster.serve": (_pre_cluster, _post_cluster),
    "core.analysis": (None, _post_analysis),
    "perfetto_json": (_pre_perfetto, None),
}


# -- metrics --------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list[float] | None) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    tracer: LayerTracer,
    wall_s: float,
    cache_delta: dict[str, float],
    facts: dict[str, float],
) -> dict[str, float]:
    """Per-layer numbers of one traced body (everything but ``bench.*``
    figures that need the untraced runs)."""
    s = tracer.self_s
    n = tracer.calls
    c = tracer.counts
    samples = tracer.samples
    lookups = cache_delta["hits"] + cache_delta["misses"]
    accesses = c.get("vm.fast_accesses", 0.0) + c.get("vm.slow_accesses", 0.0)
    loop_s = s.get("sim.loop", 0.0)
    loop_events = c.get("sim.loop_events", 0.0)
    attributed = sum(s.values())
    metrics = {
        "trace.synth_s": s.get("trace.trace", 0.0),
        "trace.synth_calls": cache_delta["misses"],
        "trace.cache_hit_ratio": _ratio(cache_delta["hits"], lookups),
        "trace.cache_mb": cache_delta["used_bytes"] / 1e6,
        "trace.cache_evictions": cache_delta["evictions"],
        "profiling.damon_s": s.get("profiling.damon", 0.0),
        "profiling.damon_calls": n.get("profiling.damon", 0),
        "profiling.unified_s": s.get("profiling.unified", 0.0),
        # One pattern update per profiling invocation.
        "profiling.invocations": n.get("profiling.unified", 0),
        "core.analysis_s": s.get("core.analysis", 0.0),
        "core.analysis_calls": n.get("core.analysis", 0),
        "core.invoke_s": s.get("core.invoke", 0.0),
        "core.slow_fraction": (
            statistics.fmean(samples["core.slow_fraction"])
            if samples.get("core.slow_fraction") else 0.0
        ),
        "vm.restore_s": s.get("vm.restore", 0.0) + s.get("vm.vmm_restore", 0.0),
        "vm.restore_calls": n.get("vm.restore", 0),
        "vm.execute_s": s.get("vm.execute", 0.0),
        "vm.execute_calls": n.get("vm.execute", 0),
        "vm.snapshot_s": s.get("vm.snapshot", 0.0),
        "vm.sim_setup_p50_s": _median(samples.get("vm.sim_setup_s")),
        "vm.major_faults": c.get("vm.major_faults", 0.0),
        "vm.slow_access_frac": _ratio(c.get("vm.slow_accesses", 0.0), accesses),
        "memsim.page_cache_s": s.get("memsim.page_cache", 0.0),
        "memsim.page_cache_miss_ratio": _ratio(
            c.get("memsim.pages_missed", 0.0), c.get("memsim.pages_requested", 0.0)
        ),
        "memsim.contention_s": s.get("memsim.contention", 0.0),
        "memsim.contention_calls": n.get("memsim.contention", 0),
        "memsim.solve_memo_hit_ratio": _ratio(
            c.get("memsim.solve_memo_hits", 0.0), n.get("memsim.contention", 0)
        ),
        "sim.cohort_s": s.get("sim.cohort", 0.0),
        "sim.cohort_calls": n.get("sim.cohort", 0),
        "sim.cohort_invocations": c.get("sim.cohort_invocations", 0.0),
        "sim.cohort_memo_hits": c.get("sim.cohort_memo_hits", 0.0),
        "sim.scalar_fallback_ratio": _ratio(
            c.get("sim.scalar_fallbacks", 0.0), n.get("sim.invoke_batch", 0)
        ),
        "sim.loop_s": loop_s,
        "sim.loop_events": loop_events,
        "sim.host_us_per_event": _ratio(loop_s * 1e6, loop_events),
        "platform.serve_s": s.get("platform.serve", 0.0),
        "platform.requests": c.get("platform.requests", 0.0),
        "platform.queue_p50_s": _median(samples.get("platform.queue_delay_s")),
        "platform.shed": c.get("platform.shed", 0.0),
        "cluster.serve_s": s.get("cluster.serve", 0.0),
        "cluster.redispatches": c.get("cluster.redispatches", 0.0),
        "cluster.kills": c.get("cluster.kills", 0.0),
        "cluster.unaccounted": c.get("cluster.unaccounted", 0.0),
        "durability.scrub_s": s.get("durability.scrub", 0.0),
        "durability.digest_s": s.get("durability.digest", 0.0),
        "durability.checksum_s": s.get("durability.checksum", 0.0),
        "durability.scrub_chunks": facts.get("durability.scrub_chunks", 0.0),
        "durability.repairs": facts.get("durability.repairs", 0.0),
        "durability.unaccounted": facts.get("durability.unaccounted", 0.0),
        "obs.export_s": s.get("obs.export", 0.0),
        "obs.spans": c.get("obs.spans", 0.0),
        "obs.slo_samples": facts.get("obs.slo_samples", 0.0),
        "bench.unattributed_s": wall_s - attributed,
        "bench.coverage": _ratio(attributed, wall_s),
        "bench.traced_wall_s": wall_s,
    }
    return {k: float(v) for k, v in metrics.items()}
