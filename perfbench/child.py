"""Run one workload once, cold, in this fresh process.

    python3 perfbench/child.py --workload NAME --seed N [--traced]
        [--spans-out PATH] [--tiny]

Prints one JSON object as its last stdout line.  ``t_body_start`` is a
``time.monotonic()`` reading (system-wide on Linux), so the parent can
take set-up time from its own clock reading at spawn.

With ``--traced`` the body runs under :class:`tracing.LayerTracer`, the
spans are written to ``--spans-out``, and a warm pass re-runs the body
in the same process before the wrappers are removed again.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402


def _cache_counters() -> dict[str, float]:
    from repro.trace import shared_trace_cache

    cache = shared_trace_cache()
    return {
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
        "used_bytes": cache.used_bytes,
    }


def _cache_delta(before: dict[str, float]) -> dict[str, float]:
    after = _cache_counters()
    delta = {k: after[k] - before[k] for k in ("hits", "misses", "evictions")}
    delta["used_bytes"] = after["used_bytes"]
    return delta


def _summary(result: workloads.Result) -> dict:
    pct, tail, beyond = workloads.tail_percentile(result.latencies_s)
    return {
        "attempted": result.attempted,
        "sim_failed": result.sim_failed,
        "digest": result.digest,
        "failed_checks": result.failed_checks,
        "samples": len(result.latencies_s),
        "sim_p50_s": statistics.median(result.latencies_s),
        "sim_tail_s": tail,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "sim_cost_ratio": result.cost_ratio,
    }


def _traced_pass(tracer, workload, state, run_id: str, spans_out: Path | None):
    import tracing

    tracer.reset(run_id)
    before = _cache_counters()
    start = time.perf_counter()
    result = workload.body(state)
    wall_s = time.perf_counter() - start
    metrics = tracing.layer_metrics(tracer, wall_s, _cache_delta(before), result.facts)
    if spans_out is not None:
        tracer.write_spans(spans_out)
    return result, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.tiny)
    out: dict = {"workload": workload.name, "seed": args.seed}

    if not args.traced:
        out["t_body_start"] = time.monotonic()
        start = time.perf_counter()
        result = workload.body(state)
        out["wall_s"] = time.perf_counter() - start
        out.update(_summary(result))
        print(json.dumps(out))
        return 0

    import tracing

    if args.spans_out is not None:
        args.spans_out.unlink(missing_ok=True)
    tracer = tracing.LayerTracer()
    tracer.install()
    try:
        out["t_body_start"] = time.monotonic()
        run_id = f"{workload.name}/{args.seed}"
        result, out["layers"] = _traced_pass(
            tracer, workload, state, f"{run_id}/cold", args.spans_out
        )
        out["wall_s"] = out["layers"]["bench.traced_wall_s"]
        warm_state = state if workload.replayable else workload.setup(args.seed, args.tiny)
        warm_result, out["warm"] = _traced_pass(
            tracer, workload, warm_state, f"{run_id}/warm", args.spans_out
        )
    finally:
        tracer.remove()
    out.update(_summary(result))
    out["warm_digest"] = warm_result.digest
    out["failed_checks"] += warm_result.failed_checks
    leftovers = tracer.leftovers()
    if leftovers:
        out["failed_checks"].append(f"wrappers left installed: {leftovers}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
