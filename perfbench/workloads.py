"""The benchmark's four workloads, driven only through the simulator's
public API.

Each workload is split the way a user pays for it:

* ``setup(seed, tiny)`` — input generation and deployment (and, for
  ``burst_sweep``, system preparation).  Counted in ``setup_s``.
* ``body(state)`` — the timed part: the simulator serves the whole
  request list, blocking until it is done.  Counted in ``wall_s``.

A body returns a :class:`Result`: the simulated outputs folded into a
digest, the simulated latencies the ``sim_*`` metrics come from, and the
correctness checks that ran on them.  Request lists are generated whole
from the seed (an open loop in simulated time); nothing in a body reads
the host clock.

The seed generates only the request lists; the simulator's own seeds
(trace synthesis, fault plans) stay at their defaults, so a seed changes
what is asked of the program, not the program.

Every simulator module a workload uses is imported with this module, so
imports count toward set-up time and never toward a timed body, traced
or not.

``tiny`` shrinks every workload to a few seconds for the benchmark's own
tests; the measured runs always use the full sizes.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import repro.sim.contention  # noqa: F401  (imported lazily by the platform)
from repro.baselines import DramBaseline, ReapSystem, TossSystem, VanillaLazy
from repro.cluster import FLEET_SUITE, ClusterConfig, ClusterPlatform
from repro.core.toss import TossConfig
from repro.durability import ScrubConfig
from repro.faults.plan import BitRotSpec, FaultPlan, HostFaultSpec
from repro.functions import get_function
from repro.memsim.compressed import LZ4_POINT, compressed_memory_system
from repro.obs import (
    BurnWindow,
    FleetAggregator,
    Observation,
    SloConfig,
    SloTracker,
)
# Exporters are called through their module: the traced run patches
# ``repro`` modules, not this one.
from repro.obs import export as obs_export
from repro.obs import runtime as obs_runtime
from repro.platform.overload import RequestClass
from repro.platform.scheduler import Scheduler
from repro.platform.server import ServerlessPlatform
from repro.pricing import bill_invocation

__all__ = ["Result", "Workload", "WORKLOADS", "tail_percentile"]


# -- results ------------------------------------------------------------------


def _canon(value: Any) -> str:
    """Exact, hash-seed-independent text for a digest field."""
    if isinstance(value, (bool, np.bool_)):
        return "T" if value else "F"
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    return repr(str(value))


@dataclass
class Result:
    """What one workload body produced, in simulator terms."""
    attempted: int
    """Invocations in the generated request list."""
    latencies_s: list[float]
    """Simulated latency (queue + setup + exec) of every completed one."""
    sim_failed: int
    """Invocations the simulator reported failed or shed."""
    tiered_cost: float
    dram_cost: float
    """Memory bill of the TOSS invocations, tiered and all-DRAM."""
    rows: list[tuple] = field(default_factory=list)
    """Per-invocation output columns, folded into :attr:`digest`."""
    failed_checks: list[str] = field(default_factory=list)
    facts: dict[str, float] = field(default_factory=dict)
    """Counts the program reports about itself (per-layer metrics)."""
    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed_checks.append(message)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for row in self.rows:
            h.update(_canon(row).encode())
            h.update(b"\n")
        return h.hexdigest()

    @property
    def cost_ratio(self) -> float:
        return self.tiered_cost / self.dram_cost if self.dram_cost > 0 else math.nan


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(latencies: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value, samples_beyond)``.
    """
    n = len(latencies)
    if n == 0:
        return 50.0, math.nan, 0
    values = np.asarray(latencies, dtype=np.float64)
    for pct in TAIL_LADDER:
        beyond = n * (1000 - round(pct * 10)) // 1000
        if beyond >= 10 or pct == TAIL_LADDER[-1]:
            return pct, float(np.percentile(values, pct)), beyond
    raise AssertionError("unreachable")


def _request_multiset_check(
    result: Result, requested: list[tuple], logged: list[tuple]
) -> None:
    """Every generated request is logged exactly once."""
    want = Counter(requested)
    got = Counter(logged)
    result.check(
        len(logged) == len(requested) and want == got,
        f"{len(requested)} requests generated, {len(logged)} logged, "
        f"{sum((want - got).values())} missing, "
        f"{sum((got - want).values())} extra",
    )


def _bill_toss(result: Result, toss: Any, duration_s: float) -> None:
    """Bill one TOSS invocation the way the platform does: the analysis'
    expected slowdown recovers the all-DRAM duration."""
    analysis = toss.analysis
    bill = bill_invocation(
        guest_mb=toss.function.guest_mb,
        duration_s=duration_s,
        slow_fraction=toss.slow_fraction,
        slowdown=analysis.expected_slowdown if toss.slow_fraction > 0 else 1.0,
    )
    result.tiered_cost += bill.tiered_cost
    result.dram_cost += bill.dram_cost


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, bool], Any]
    body: Callable[[Any], Result]
    replayable: bool = False
    """The warm pass may re-run the body on the same state (the body
    leaves the prepared systems as it found them, apart from memos)."""


# -- suite_cold -------------------------------------------------------------------

SUITE_FUNCTIONS = ("pagerank", "pyaes", "float_operation", "json_load_dump")
SUITE_FUNCTIONS_TINY = ("pyaes", "float_operation")
SUITE_SEEDS_PER_INPUT = 2
SUITE_SYSTEMS = ("toss", "reap-iv", "reap-i", "vanilla", "dram")


@dataclass
class _SuiteState:
    functions: tuple[str, ...]
    requests: list[tuple[str, str, int, int]]


def _suite_setup(seed: int, tiny: bool) -> _SuiteState:
    functions = SUITE_FUNCTIONS_TINY if tiny else SUITE_FUNCTIONS
    rng = np.random.default_rng([seed, 1])
    requests = []
    for name in functions:
        n_inputs = get_function(name).n_inputs
        inv_seeds = rng.integers(0, 2**31, size=(n_inputs, SUITE_SEEDS_PER_INPUT))
        for system in SUITE_SYSTEMS:
            for input_index in range(n_inputs):
                for inv_seed in inv_seeds[input_index]:
                    requests.append((name, system, input_index, int(inv_seed)))
    return _SuiteState(functions, requests)


def _suite_body(state: _SuiteState) -> Result:
    """Figure 7/8's offline pipeline: prepare every system cold, then one
    cold invocation per request on the two-tier DRAM+PMEM host."""
    result = Result(
        attempted=len(state.requests),
        latencies_s=[],
        sim_failed=0,
        tiered_cost=0.0,
        dram_cost=0.0,
    )
    systems = {}
    for name in state.functions:
        function = get_function(name)
        toss = TossSystem(function, profiling_inputs=(0, 1, 2, 3))
        systems[name] = {
            "toss": toss,
            "reap-iv": ReapSystem(function, 3),
            "reap-i": ReapSystem(function, 0),
            "vanilla": VanillaLazy(function),
            "dram": DramBaseline(function),
        }
        result.rows.append((name, "slow_fraction", toss.slow_fraction))
        result.check(
            0.0 <= toss.slow_fraction <= 1.0,
            f"{name}: TOSS slow fraction {toss.slow_fraction} outside [0, 1]",
        )
    totals: dict[tuple, float] = {}
    setups: dict[tuple, float] = {}
    for name, system, input_index, inv_seed in state.requests:
        outcome = systems[name][system].invoke(input_index, inv_seed)
        total = outcome.total_time_s
        totals[(name, system, input_index, inv_seed)] = total
        setups[(name, system, input_index, inv_seed)] = outcome.setup_time_s
        result.latencies_s.append(total)
        result.rows.append(
            (name, system, input_index, inv_seed, outcome.setup_time_s,
             outcome.exec_time_s)
        )
        result.check(
            math.isfinite(total) and total > 0,
            f"{name}/{system}: non-positive latency {total}",
        )
    for (name, system, input_index, inv_seed), total in totals.items():
        if system == "toss":
            _bill_toss(result, systems[name]["toss"], total)
    if "pagerank" in state.functions:
        # Section VI-C: TOSS restores the large uniform-working-set guest
        # far faster than REAP prefetching from a mismatched input.
        toss_setup = max(v for k, v in setups.items() if k[:2] == ("pagerank", "toss"))
        reap_setup = max(v for k, v in setups.items() if k[:2] == ("pagerank", "reap-i"))
        result.check(
            toss_setup < reap_setup,
            f"pagerank: TOSS setup {toss_setup} not below REAP {reap_setup}",
        )
    return result


# -- burst_sweep -------------------------------------------------------------------

BURST_FUNCTIONS = ("pyaes", "json_load_dump")
BURST_LEVELS = (10, 50, 200)
BURST_FUNCTIONS_TINY = ("pyaes",)
BURST_LEVELS_TINY = (4, 12)
BURST_INPUT = 3


@dataclass
class _BurstState:
    systems: list[tuple[str, str, Any]]
    levels: tuple[int, ...]
    seed_base: int


def _burst_setup(seed: int, tiny: bool) -> _BurstState:
    rng = np.random.default_rng([seed, 2])
    systems = []
    for name in BURST_FUNCTIONS_TINY if tiny else BURST_FUNCTIONS:
        function = get_function(name)
        systems += [
            (name, "dram", DramBaseline(function)),
            (name, "toss", TossSystem(function)),
            (name, "reap-best", ReapSystem(function, BURST_INPUT)),
            (name, "reap-worst", ReapSystem(function, 0)),
        ]
    return _BurstState(
        systems=systems,
        levels=BURST_LEVELS_TINY if tiny else BURST_LEVELS,
        seed_base=int(rng.integers(0, 2**20)),
    )


def _burst_body(state: _BurstState) -> Result:
    """Figure 9's synchronized bursts: every system at every level, the
    same invocation seeds replayed through all four systems."""
    result = Result(
        attempted=len(state.systems) * sum(state.levels),
        latencies_s=[],
        sim_failed=0,
        tiered_cost=0.0,
        dram_cost=0.0,
    )
    scheduler = Scheduler(n_cores=max(state.levels))
    narrowest: dict[tuple[str, str], tuple[float, ...]] = {}
    for level in state.levels:
        for name, system_name, system in state.systems:
            run = scheduler.run_concurrent(
                system, BURST_INPUT, level, seed_base=state.seed_base
            )
            result.rows.append(
                (name, system_name, level, run.exec_times_s, run.setup_times_s,
                 sorted(run.inflation.items()))
            )
            # Contention never makes an invocation faster than it ran in
            # the narrowest burst (the first seeds are shared by all levels).
            first = narrowest.setdefault((name, system_name), run.exec_times_s)
            result.check(
                all(b >= a for a, b in zip(first, run.exec_times_s)),
                f"{name}/{system_name}: an invocation ran faster at C={level} "
                f"than at C={state.levels[0]}",
            )
            for setup, exec_s in zip(run.setup_times_s, run.exec_times_s):
                result.latencies_s.append(setup + exec_s)
                if system_name == "toss":
                    _bill_toss(result, system, setup + exec_s)
    return result


# -- serve_ntier ---------------------------------------------------------------------

SERVE_FUNCTIONS = (
    "pyaes", "json_load_dump", "float_operation", "matmul", "linpack",
    "image_processing",
)
SERVE_REQUESTS = 500
SERVE_RATE_PER_S = 10.0
SERVE_FUNCTIONS_TINY = ("pyaes", "float_operation")
SERVE_REQUESTS_TINY = 40
SERVE_CORES = 8
ZIPF_S = 1.1


def _zipf_weights(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_S
    return weights / weights.sum()


def _request_mix(
    rng: np.random.Generator, names: tuple[str, ...], n: int
) -> list[tuple[str, int]]:
    """``n`` (function, input) pairs in Zipf proportions, seeded order.

    The multiset is the same for every seed (inputs cycle evenly within
    each function's share); the seed only shuffles it, so seeds differ in
    ordering and timing rather than in how much of each function runs.
    """
    counts = np.floor(_zipf_weights(len(names)) * n).astype(int)
    counts[0] += n - int(counts.sum())
    mix = [
        (name, k % 4) for name, count in zip(names, counts) for k in range(count)
    ]
    return [mix[i] for i in rng.permutation(n)]


def _poisson_arrivals(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


@dataclass
class _ServeState:
    platform: Any
    requests: list[tuple[float, str, int]]


def _serve_setup(seed: int, tiny: bool) -> _ServeState:
    names = SERVE_FUNCTIONS_TINY if tiny else SERVE_FUNCTIONS
    n = SERVE_REQUESTS_TINY if tiny else SERVE_REQUESTS
    rng = np.random.default_rng([seed, 3])
    arrivals = _poisson_arrivals(rng, n, SERVE_RATE_PER_S)
    requests = [
        (float(a), name, i)
        for a, (name, i) in zip(arrivals, _request_mix(rng, names, n))
    ]
    platform = ServerlessPlatform(
        n_cores=SERVE_CORES,
        memory=compressed_memory_system((LZ4_POINT,)),
        toss_cfg=TossConfig(convergence_window=3, min_profiling_invocations=3),
    )
    for name in names:
        platform.deploy(get_function(name))
    return _ServeState(platform, requests)


def _entry_row(entry) -> tuple:
    return (
        entry.function, entry.input_index, entry.arrival_s, entry.start_s,
        entry.finish_s, entry.phase.value, entry.setup_time_s,
        entry.exec_time_s, entry.failed, entry.shed, entry.degraded,
        entry.bill.tiered_cost, entry.bill.dram_cost,
    )


def _serve_body(state: _ServeState) -> Result:
    """One cold-started platform on DRAM + lz4 pool + PMEM serving a
    Poisson stream; profiling and convergence happen inside the stream."""
    log = state.platform.serve(state.requests)
    result = Result(
        attempted=len(state.requests),
        latencies_s=[e.latency_s for e in log if not e.shed and not e.failed],
        sim_failed=sum(1 for e in log if e.shed or e.failed),
        tiered_cost=sum(e.bill.tiered_cost for e in log),
        dram_cost=sum(e.bill.dram_cost for e in log),
        rows=[_entry_row(e) for e in log],
    )
    _request_multiset_check(
        result,
        state.requests,
        [(e.arrival_s, e.function, e.input_index) for e in log],
    )
    for e in log:
        if e.shed:
            continue
        result.check(
            e.finish_s >= e.start_s >= e.arrival_s
            and math.isclose(
                e.finish_s - e.start_s, e.setup_time_s + e.exec_time_s,
                rel_tol=1e-9, abs_tol=1e-12,
            ),
            f"{e.function}@{e.arrival_s}: inconsistent timeline",
        )
    tiered = sum(1 for e in log if e.phase.value == "tiered")
    result.check(tiered > 0, "no request was served from a tiered snapshot")
    return result


# -- fleet_chaos ------------------------------------------------------------------------

FLEET_REQUESTS = 960
FLEET_DURATION_S = 12.0
FLEET_REQUESTS_TINY = 80
FLEET_DURATION_S_TINY = 4.0
FLEET_BATCH_SHARE = 0.25


@dataclass
class _FleetState:
    cluster: Any
    requests: list[tuple]
    observation: Any
    aggregator: Any
    tracker: Any


def _fleet_setup(seed: int, tiny: bool) -> _FleetState:
    n = FLEET_REQUESTS_TINY if tiny else FLEET_REQUESTS
    duration = FLEET_DURATION_S_TINY if tiny else FLEET_DURATION_S
    rng = np.random.default_rng([seed, 4])
    arrivals = _poisson_arrivals(rng, n, n / duration)
    mix = _request_mix(rng, tuple(f.name for f in FLEET_SUITE), n)
    batch = rng.random(n) < FLEET_BATCH_SHARE
    requests = [
        (a, name, i, RequestClass.BATCH if b else RequestClass.LATENCY)
        for a, (name, i), b in zip(arrivals.tolist(), mix, batch)
    ]
    # Two hosts crash in turn, so with two replicas every function keeps
    # a live holder: kills are re-dispatched, none is lost.
    plan = FaultPlan(
        hosts=(
            HostFaultSpec(host=0, crash_windows=((0.25 * duration, 0.45 * duration),)),
            HostFaultSpec(host=1, crash_windows=((0.55 * duration, 0.75 * duration),)),
        ),
        bitrot=BitRotSpec(
            ssd_rate_per_page_s=2e-6,
            pmem_rate_per_page_s=1e-6,
            latent_sector_rate_per_s=0.02,
            torn_write_rate=0.02,
        ),
    )
    cluster = ClusterPlatform(
        ClusterConfig(n_hosts=4, replication_factor=2),
        toss_cfg=TossConfig(convergence_window=3, min_profiling_invocations=3),
        plan=plan,
        scrub=ScrubConfig(interval_s=1.0, ops_per_page=0.25),
    )
    cluster.deploy_fleet(list(FLEET_SUITE))
    tracker = SloTracker(
        SloConfig(
            name="availability",
            objective=0.99,
            windows=(
                BurnWindow(long_s=4.0, short_s=1.0, threshold=2.0, severity="page"),
                BurnWindow(long_s=8.0, short_s=2.0, threshold=1.0, severity="ticket"),
            ),
            min_samples=8,
        )
    )
    aggregator = FleetAggregator(tracker)
    observation = Observation(slo=tracker, fleet=aggregator)
    return _FleetState(cluster, requests, observation, aggregator, tracker)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fleet_body(state: _FleetState) -> Result:
    """A 4-host fleet (two replicas) under crashes, bit-rot and a 1 s
    scrub cadence, fully observed, ending in the Prometheus and Perfetto
    renderings."""
    cluster = state.cluster
    with obs_runtime.observing(state.observation):
        outcomes = cluster.serve(state.requests)
    registry = state.aggregator.fleet_registry(
        cluster=cluster, parent=state.observation.metrics
    )
    prom = obs_export.prometheus_text(registry)
    traces = {
        hid: obs_export.perfetto_json(child.tracer, process_name=f"repro-host{hid}")
        for hid, child in state.aggregator.host_tracer_items()
    }
    served = [o for o in outcomes if o.served]
    result = Result(
        attempted=len(state.requests),
        latencies_s=[o.latency_s for o in served],
        sim_failed=len(outcomes) - len(served),
        tiered_cost=sum(o.entry.bill.tiered_cost for o in served),
        dram_cost=sum(o.entry.bill.dram_cost for o in served),
        rows=[
            (o.function, o.input_index, o.arrival_s, o.request_class, o.host,
             o.attempts, o.redispatches, o.kills, o.backoff_s, o.shed_reason,
             _entry_row(o.entry) if o.entry is not None else None)
            for o in outcomes
        ],
    )
    durability = cluster.durability
    summary = durability.summary()
    result.rows.append(("durability", sorted(summary.items())))
    result.rows.append(("prometheus", _sha(prom)))
    result.rows.extend(("perfetto", hid, _sha(text)) for hid, text in sorted(traces.items()))
    result.rows.append(("alerts", _sha(state.tracker.records_jsonl())))
    _request_multiset_check(
        result,
        [(a, f, i, c.value) for a, f, i, c in state.requests],
        [(o.arrival_s, o.function, o.input_index, o.request_class) for o in outcomes],
    )
    result.check(cluster.unaccounted() == 0,
                 f"cluster.unaccounted() = {cluster.unaccounted()}")
    result.check(durability.unaccounted() == 0,
                 f"durability.unaccounted() = {durability.unaccounted()}")
    result.facts.update(
        {
            "obs.slo_samples": float(state.tracker.sample_count()),
            "durability.scrub_chunks": float(summary["scrub_chunks"]),
            "durability.repairs": float(
                summary["repaired_replica"] + summary["re_snapshot"]
                + summary["rebuilt_cold"]
            ),
            "durability.unaccounted": float(durability.unaccounted()),
        }
    )
    return result


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "suite_cold",
            "the paper's offline pipeline (Fig. 7/8) on DRAM+PMEM: trace "
            "synthesis, DAMON, analysis and scalar restore/execute",
            _suite_setup,
            _suite_body,
        ),
        Workload(
            "burst_sweep",
            "Fig. 9 synchronized bursts: the vectorised cohort engine, the "
            "contention fixed point and trace-cache reuse",
            _burst_setup,
            _burst_body,
            replayable=True,
        ),
        Workload(
            "serve_ntier",
            "steady platform serving on DRAM+lz4+PMEM: tiered restore, scalar "
            "execute and per-page decompress, bypassing the batch engine",
            _serve_setup,
            _serve_body,
        ),
        Workload(
            "fleet_chaos",
            "4-host fleet with crashes, bit-rot and scrub under full "
            "observation: event loop, durability, routing and exporters",
            _fleet_setup,
            _fleet_body,
        ),
    )
}
