"""The repository's benchmark: each workload, cold, one process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  For ``--seconds`` this script starts
fresh child processes (``perfbench/child.py``) one after another, each
running the workload once from interpreter start, and reports medians
over them.  Children get distinct ``PYTHONHASHSEED`` values and must all
produce the same output digest.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced children and prints the
per-layer metrics (the traced children also write their spans under
``.perfbench_out/``).  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the per-child detail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("suite_cold", "burst_sweep", "serve_ntier", "fleet_chaos")

MIN_UNTRACED = 5
"""Children per untraced run at least.  Host time on a shared machine
drifts by 10-20% between children; a median of three moved ``setup_s``
by a quarter between runs."""
MIN_EACH_TRACED = 2
"""Untraced and traced children per traced run at least."""
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0
"""No child is started that would likely end past this."""


def measure_child(argv: list[str], env: dict[str, str], timeout_s: float):
    """Run one child to completion.

    Returns ``(exit_code, stdout, peak_rss_mb, t_spawn)``: the peak RSS is
    the child's own high-water mark from ``wait4``, not the cumulative
    ``RUSAGE_CHILDREN`` maximum over every child reaped so far.
    """
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss / 1024.0, t_spawn


def _child_env(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(args, index: int, traced: bool) -> dict:
    argv = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if traced:
        argv += ["--traced", "--spans-out",
                 str(OUT_DIR / f"spans-{args.workload}-{args.seed}-{index}.jsonl")]
    if args.tiny:
        argv.append("--tiny")
    code, stdout, rss_mb, t_spawn = measure_child(argv, _child_env(index), CHILD_TIMEOUT_S)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        return {"ok": False, "traced": traced, "error": f"child exited with {code}"}
    record = json.loads(lines[-1])
    record.update(
        ok=True,
        traced=traced,
        peak_rss_mb=rss_mb,
        setup_s=record["t_body_start"] - t_spawn,
    )
    return record


def run_children(args) -> list[dict]:
    """Start children until ``--seconds`` have passed and enough ran."""
    start = time.monotonic()
    children: list[dict] = []
    while True:
        traced = bool(args.trace) and len(children) % 2 == 1
        children.append(_run_child(args, len(children), traced))
        elapsed = time.monotonic() - start
        n_untraced = sum(1 for c in children if not c["traced"])
        n_traced = len(children) - n_untraced
        enough = (
            n_untraced >= MIN_EACH_TRACED and n_traced >= MIN_EACH_TRACED
            if args.trace
            else n_untraced >= MIN_UNTRACED
        )
        if enough and elapsed >= args.seconds:
            return children
        if elapsed + 2.0 * elapsed / len(children) > RUN_BUDGET_S:
            return children


def check(args, children: list[dict]) -> list[str]:
    """Everything that makes the run incorrect (empty when correct)."""
    problems = [c["error"] for c in children if not c["ok"]]
    good = [c for c in children if c["ok"]]
    for c in good:
        problems += c["failed_checks"]
    digests = {c["digest"] for c in good} | {c["warm_digest"] for c in good if c["traced"]}
    if len(digests) > 1:
        problems.append(f"outputs differ between runs: {sorted(digests)}")
    recorded = (
        json.loads((BENCH_DIR / "digests.json").read_text())
        .get(args.workload, {})
        .get(str(args.seed))
    )
    if recorded is not None and not args.tiny and digests != {recorded}:
        problems.append(f"digest differs from the recorded {recorded}")
    if not good:
        problems.append("no child completed")
    return problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(children: list[dict], failed: int, attempted: int) -> dict[str, float]:
    runs = [c for c in children if c["ok"] and not c["traced"]]
    first = runs[0] if runs else {}
    return {
        "setup_s": _median([c["setup_s"] for c in runs]),
        "wall_s": _median([c["wall_s"] for c in runs]),
        "inv_per_s": _median([c["attempted"] / c["wall_s"] for c in runs]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in runs]),
        "served_frac": 1.0 - failed / attempted,
        "sim_p50_s": first.get("sim_p50_s", float("nan")),
        "sim_tail_s": first.get("sim_tail_s", float("nan")),
        "sim_cost_ratio": first.get("sim_cost_ratio", float("nan")),
    }


def per_layer(children: list[dict]) -> dict[str, float]:
    traced = [c for c in children if c["ok"] and c["traced"]]
    untraced = [c for c in children if c["ok"] and not c["traced"]]
    names = traced[0]["layers"] if traced else {}
    metrics = {k: _median([c["layers"][k] for c in traced]) for k in names}
    metrics["bench.trace_overhead_s"] = (
        _median([c["wall_s"] for c in traced]) - _median([c["wall_s"] for c in untraced])
    )
    metrics["warm.wall_s"] = _median([c["warm"]["bench.traced_wall_s"] for c in traced])
    for key in ("trace.cache_hit_ratio", "memsim.solve_memo_hit_ratio",
                "sim.cohort_memo_hits"):
        metrics[f"warm.{key}"] = _median([c["warm"][key] for c in traced])
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workloads, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}: run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)

    children = run_children(args)
    problems = check(args, children)
    attempted = sum(c.get("attempted", 0) for c in children) or 1
    if problems:
        failed = attempted
    else:
        failed = sum(c["sim_failed"] for c in children)
    values = per_layer(children) if args.trace else end_to_end(children, failed, attempted)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    # A failed run can leave a metric unmeasured; JSON has no NaN.
    metrics = {
        m["name"]: {
            "value": value if math.isfinite(value := values.get(m["name"], math.nan))
            else 0.0,
            "unit": m["unit"],
        }
        for m in listed
    }

    first = next((c for c in children if c["ok"]), {})
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "problems": problems,
        "digest": first.get("digest"),
        "sim_tail_percentile": first.get("tail_percentile"),
        "sim_tail_samples_beyond": first.get("tail_beyond"),
        "sim_samples": first.get("samples"),
        "invocations_per_child": first.get("attempted"),
        "children": [
            {k: c.get(k) for k in ("traced", "ok", "setup_s", "wall_s", "peak_rss_mb",
                                   "error")}
            for c in children
        ],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
