"""The benchmark's own tests, on the shrunken (``--tiny``) workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spec_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace:
        # The traced and warm digests matched the untraced one (correct).
        assert 0.0 < result["metrics"]["bench.coverage"]["value"] <= 1.0


def _child_digest(workload: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
         "--seed", "5", "--tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["digest"]


@pytest.mark.parametrize("workload", ["serve_ntier", "fleet_chaos"])
def test_digest_is_the_same_across_processes_and_hash_seeds(workload):
    assert _child_digest(workload, "1") == _child_digest(workload, "2")


def test_digest_moves_with_the_seed():
    w = workloads.WORKLOADS["serve_ntier"]
    assert w.body(w.setup(1, True)).digest != w.body(w.setup(2, True)).digest


def test_tracing_wrappers_are_removed_and_change_nothing():
    from repro.baselines import base
    from repro.obs import runtime
    from repro.sim import batchexec
    from repro.vm.microvm import MicroVM

    w = workloads.WORKLOADS["burst_sweep"]
    untraced = w.body(w.setup(7, True)).digest
    original_execute = MicroVM.__dict__["execute"]
    original_cohort = batchexec.execute_cohort

    tracer = tracing.LayerTracer()
    tracer.install()
    try:
        # Patched where the caller looks the name up, not only at home.
        assert base.execute_cohort is batchexec.execute_cohort
        assert base.execute_cohort.__wrapped__ is original_cohort
        assert MicroVM.__dict__["execute"].__wrapped__ is original_execute
        traced = w.body(w.setup(7, True)).digest
        assert runtime.active() is None
    finally:
        tracer.remove()

    assert traced == untraced
    assert tracer.calls["sim.cohort"] > 0
    assert tracer.leftovers() == []
    assert base.execute_cohort is original_cohort
    assert batchexec.execute_cohort is original_cohort
    assert MicroVM.__dict__["execute"] is original_execute


def test_peak_rss_is_each_childs_own():
    big = "x = bytearray(300 * 2**20); x[::4096] = b'1' * len(x[::4096])"
    _, _, big_mb, _ = run.measure_child([sys.executable, "-c", big], dict(os.environ), 60)
    _, _, small_mb, _ = run.measure_child(
        [sys.executable, "-c", "pass"], dict(os.environ), 60
    )
    assert big_mb > 300
    # A cumulative (RUSAGE_CHILDREN) reading would still show the big one.
    assert small_mb < 100


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert workloads.tail_percentile(list(range(1000)))[0] == 99.0
    assert workloads.tail_percentile(list(range(999)))[0] == 95.0
    pct, _, beyond = workloads.tail_percentile(list(range(160)))
    assert (pct, beyond) == (90.0, 16)
