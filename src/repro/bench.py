"""``python -m repro bench``: the cold per-process benchmark, gated.

For each ``BENCHMARK.json`` workload this runs a checkout's own
``perfbench/run.py`` untraced (cold end-to-end medians, each child's
peak RSS) and traced (per-layer self times, the warm pass), and collects
both into one ``toss-bench/v2`` report with each run's digest status.

Given a parent checkout, each workload's untraced runs go parent,
change, change, parent (ABBA), so a drift in the host's speed falls on
both sides, and ``python -m repro run tco`` and ``run fleet``, which no
workload covers, are timed in the same order.  Each side runs its own
``perfbench/`` and ``src/``.  The exit code is 1 when a run of either
side is incorrect, when an end-to-end metric is missing on either side,
or when every change run of a metric is worse than every parent run by
more than its bound (for an experiment, :data:`EXPERIMENT_BOUND` times
the parent's time).  A metric whose median is that much worse while its
runs overlap the parent's is reported as unresolved, not failed: one
ABBA block gives two runs a side, and on a shared host their spread can
be wider than the bound.  The simulator never imports this module.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from .errors import ConfigError

__all__ = ["SCHEMA", "checkout", "compare", "main", "parse_run"]

SCHEMA = "toss-bench/v2"
SEED = 1
"""Workload seed of every perfbench run."""
ROOT = Path(__file__).resolve().parents[2]
"""The checkout this module runs from: the change."""
EXPERIMENTS = ("tco", "fleet")
EXPERIMENT_BOUND = 1.5
"""Largest change/parent ratio of an experiment's median wall time."""


def checkout(path: str | Path) -> Path:
    """``path`` resolved, if it is a checkout with a perfbench."""
    root = Path(path).resolve()
    if not (root / "perfbench" / "run.py").is_file():
        raise ConfigError(f"{root} has no perfbench/run.py: not a checkout")
    return root


def _run(root: Path, argv: list[str], **kwargs: Any) -> Any:
    """``argv`` under this interpreter, in ``root`` and on its ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(root / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.run([sys.executable, *argv], cwd=root, env=env, **kwargs)


def parse_run(stdout: str, returncode: int = 0) -> dict[str, Any]:
    """One perfbench run from its last two lines: the detail, the result."""
    try:
        detail, result = map(json.loads, stdout.strip().splitlines()[-2:])
        run = {
            "correct": result["correct"] is True and returncode == 0,
            "problems": list(detail["problems"]),
            "digest": detail["digest"],
            "children": detail["children"],
            "metrics": {k: float(v["value"]) for k, v in result["metrics"].items()},
        }
    except (KeyError, TypeError, ValueError) as exc:
        return {"correct": False, "digest": None, "children": [], "metrics": {},
                "problems": [f"unreadable perfbench output ({exc!r})"]}
    if returncode != 0:
        run["problems"].append(f"perfbench exited with {returncode}")
    return run


def perfbench(root: Path, workload: str, seconds: int, trace: int) -> dict[str, Any]:
    """Run ``root``'s own perfbench on one workload."""
    proc = _run(root, [str(root / "perfbench" / "run.py"), "--workload", workload,
                       "--seed", str(SEED), "--seconds", str(seconds),
                       "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
    run = parse_run(proc.stdout, proc.returncode)
    print(f"[bench] {workload} in {root} (trace {trace}): correct={run['correct']} "
          f"wall_s={run['metrics'].get('wall_s', float('nan')):.3f}", flush=True)
    return run


def experiment_seconds(root: Path, name: str) -> float | None:
    """Wall seconds of ``python -m repro run NAME`` in ``root``; None if it fails."""
    start = time.perf_counter()
    proc = _run(root, ["-m", "repro", "run", name], stdout=subprocess.DEVNULL)
    return time.perf_counter() - start if proc.returncode == 0 else None


def _side(spec: dict[str, Any], runs: list[dict[str, Any]]) -> dict[str, Any]:
    """One side's runs of a workload: one digest across them, and each
    end-to-end metric's runs and median (left out when a run lacks it)."""
    problems = [p for run in runs for p in run["problems"]]
    digests = sorted({run["digest"] for run in runs if run["digest"]})
    if len(digests) > 1:
        problems.append(f"digests differ between runs: {digests}")
    values = {
        m["name"]: [run["metrics"][m["name"]] for run in runs]
        for m in spec["end_to_end"]
        if all(m["name"] in run["metrics"] for run in runs)
    }
    return {
        "correct": all(run["correct"] for run in runs) and len(digests) <= 1,
        "problems": problems,
        "digest": digests[0] if len(digests) == 1 else None,
        "end_to_end": {name: statistics.median(v) for name, v in values.items()},
        "end_to_end_runs": values,
        "children": [child for run in runs for child in run["children"]],
    }


def _verdict(
    label: str, unit: str, new: list[float], old: list[float], bound: float,
    better: str,
) -> list[tuple[str, str]]:
    """``("failures", why)`` when every ``new`` run is worse than every
    ``old`` run by more than ``bound``, in the direction ``better``
    names; ``("unresolved", why)`` when only the medians are, so the
    runs overlap and the gap may be noise."""

    def beyond(a: float, b: float) -> bool:
        return a < b * (1.0 - bound) if better == "higher" else a > b * (1.0 + bound)

    med_new, med_old = statistics.median(new), statistics.median(old)
    if not beyond(med_new, med_old):
        return []
    why = (f"{label} median {med_new:.4g} {unit} is worse than the parent's "
           f"{med_old:.4g} by more than {bound:.0%} ({better} is better)")
    if beyond(*((max(new), min(old)) if better == "higher" else (min(new), max(old)))):
        return [("failures", why)]
    return [("unresolved", f"{why}, but the runs overlap: change "
                           f"{[round(v, 4) for v in new]}, parent "
                           f"{[round(v, 4) for v in old]}")]


def compare(
    spec: dict[str, Any],
    workload: str,
    change: dict[str, list[float]],
    parent: dict[str, list[float]] | None,
) -> list[tuple[str, str]]:
    """Findings on one workload's runs: ``("failures", why)`` or
    ``("unresolved", why)``.

    Every ``BENCHMARK.json`` end-to-end metric must be present on each
    side; with a parent, each is judged by :func:`_verdict` against its
    bound.
    """
    findings: list[tuple[str, str]] = []
    for m in spec["end_to_end"]:
        missing = [side for side, values in (("change", change), ("parent", parent))
                   if values is not None and m["name"] not in values]
        if missing:
            findings.append(("failures", f"{workload}: {m['name']} is missing "
                                         f"from the {' and '.join(missing)} run"))
        elif parent is not None:
            findings += _verdict(f"{workload}: {m['name']}", m["unit"],
                                 change[m["name"]], parent[m["name"]],
                                 m["bound"], m["better"])
    return findings


def _abba(change: Path, parent: Path | None) -> list[tuple[str, Path]]:
    if parent is None:
        return [("change", change)]
    return [("parent", parent), ("change", change), ("change", change),
            ("parent", parent)]


def _workload(
    spec: dict[str, Any], name: str, change: Path, parent: Path | None,
    seconds: int,
) -> tuple[dict[str, Any], list[tuple[str, str]]]:
    runs: dict[str, list[dict[str, Any]]] = {"change": [], "parent": []}
    for side, root in _abba(change, parent):
        runs[side].append(perfbench(root, name, seconds, trace=0))
    traced = perfbench(change, name, seconds, trace=1)
    # Correct means every change run, traced too; the metrics are untraced.
    untraced = _side(spec, runs["change"])
    entry = {**_side(spec, runs["change"] + [traced]),
             "end_to_end": untraced["end_to_end"],
             "end_to_end_runs": untraced["end_to_end_runs"],
             "per_layer": traced["metrics"]}
    findings = [] if entry["correct"] else [
        ("failures", f"{name}: incorrect run: {'; '.join(entry['problems'])}")
    ]
    against = None
    if parent is not None:
        entry["parent"] = _side(spec, runs["parent"])
        if entry["parent"]["correct"]:
            against = entry["parent"]["end_to_end_runs"]
        else:
            # A failed parent run reads 0 where it measured nothing.
            findings.append(("failures", f"{name}: parent run incorrect: "
                             f"{'; '.join(entry['parent']['problems'])}"))
    return entry, findings + compare(spec, name, entry["end_to_end_runs"], against)


def _experiment(
    name: str, change: Path, parent: Path
) -> tuple[dict[str, Any], list[tuple[str, str]]]:
    times: dict[str, list[float | None]] = {"change": [], "parent": []}
    for side, root in _abba(change, parent):
        seconds = experiment_seconds(root, name)
        times[side].append(seconds)
        print(f"[bench] run {name} {side}: "
              f"{'failed' if seconds is None else f'{seconds:.2f} s'}", flush=True)
    entry = {"change_s": times["change"], "parent_s": times["parent"]}
    if None in times["change"] + times["parent"]:
        return entry, [("failures", f"run {name}: did not complete on both sides")]
    new, old = ([t for t in times[side] if t is not None]
                for side in ("change", "parent"))
    return entry, _verdict(f"run {name}", "s", new, old, EXPERIMENT_BOUND - 1, "lower")


def main(
    change: Path,
    parent: Path | None = None,
    *,
    seconds: int | None = None,
    out: str | Path | None = None,
) -> int:
    """Benchmark the ``change`` checkout, against ``parent`` if given;
    returns the exit code."""
    spec = json.loads((change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if seconds is None else seconds
    report: dict[str, Any] = {
        "schema": SCHEMA,
        "created_unix": int(time.time()),
        "host": {"platform": platform.platform(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "config": {"seed": SEED, "seconds": seconds,
                   "parent": None if parent is None else str(parent)},
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
        "workloads": {},
    }
    findings: list[tuple[str, str]] = []
    for workload in spec["workloads"]:
        name = workload["name"]
        report["workloads"][name], found = _workload(spec, name, change, parent,
                                                     seconds)
        findings += found
    if parent is not None:
        report["experiments"] = {}
        for name in EXPERIMENTS:
            report["experiments"][name], found = _experiment(name, change, parent)
            findings += found
    for kind in ("failures", "unresolved"):
        report[kind] = [why for k, why in findings if k == kind]
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
    for kind, why in findings:
        tag = "FAIL" if kind == "failures" else "UNRESOLVED"
        print(f"{tag} {why}", file=sys.stderr)
    if not report["failures"]:
        unresolved = len(report["unresolved"])
        print("[bench] every run correct"
              + ("; no metric worse than its bound" if parent else "")
              + (f"; {unresolved} unresolved" if unresolved else ""))
    return 1 if report["failures"] else 0
