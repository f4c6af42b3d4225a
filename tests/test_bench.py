"""``python -m repro bench``: the cold benchmark's front end and its gate.

perfbench itself never runs here: every subprocess call is answered with
canned perfbench output lines.
"""

from __future__ import annotations

import json
import os
import subprocess
import types
from pathlib import Path

import pytest

from repro import bench
from repro.__main__ import main as cli

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _values(**overrides: float) -> dict[str, float]:
    values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    values.update(overrides)
    return values


def _output(
    metrics: dict[str, float], *, correct: bool = True, digest: str = "d1",
    problems: tuple[str, ...] = (),
) -> str:
    """What ``perfbench/run.py`` prints: the detail line, then the result."""
    detail = {
        "workload": "w", "seed": 1, "problems": list(problems), "digest": digest,
        "children": [{"traced": False, "ok": True, "setup_s": 0.4,
                      "wall_s": 1.0, "peak_rss_mb": 100.0, "error": None}],
    }
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    result = {
        "correct": correct, "attempted": 10, "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return f"progress\n{json.dumps(detail)}\n{json.dumps(result)}\n"


class FakePerfbench:
    """Stands in for ``subprocess.run``: canned perfbench output (the
    change's may differ from the parent's), one second of fake wall time
    per call, and a log of every call."""

    def __init__(self, parent: Path, *, change: str | None = None) -> None:
        self.parent = parent
        self.parent_out = _output(_values())
        self.change_out = self.parent_out if change is None else change
        self.calls: list[tuple[list[str], Path, dict[str, str]]] = []
        self.clock = 0.0

    def run(self, argv, *, cwd, env, stdout, text=False):
        self.calls.append((list(argv), Path(cwd), env))
        self.clock += 1.0
        if "--trace" in argv and argv[argv.index("--trace") + 1] == "1":
            out = _output({m["name"]: 1.0 for m in SPEC["per_layer"]})
        else:
            out = self.parent_out if Path(cwd) == self.parent else self.change_out
        return subprocess.CompletedProcess(argv, 0, stdout=out if text else None)


@pytest.fixture
def parent(tmp_path) -> Path:
    root = tmp_path / "parent"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    return root


def _install(monkeypatch, fake: FakePerfbench, run=None) -> None:
    monkeypatch.setattr(
        bench, "subprocess",
        types.SimpleNamespace(run=run or fake.run, PIPE=subprocess.PIPE,
                              DEVNULL=subprocess.DEVNULL),
    )
    monkeypatch.setattr(
        bench, "time", types.SimpleNamespace(perf_counter=lambda: fake.clock,
                                             time=lambda: 0.0)
    )


def _runs(**overrides: float | list[float]) -> dict[str, list[float]]:
    """Two runs a side of every metric: 1.0, or an override (one value
    for both runs, or a list of runs)."""
    runs: dict[str, list[float]] = {m["name"]: [1.0, 1.0] for m in SPEC["end_to_end"]}
    for name, v in overrides.items():
        runs[name] = list(v) if isinstance(v, list) else [v, v]
    return runs


def _compare(*args):
    """``bench.compare``'s findings as (failures, unresolved)."""
    findings = bench.compare(*args)
    return tuple([why for k, why in findings if k == kind]
                 for kind in ("failures", "unresolved"))


class TestCompare:
    def test_worse_than_bound_fails_naming_both_medians(self):
        failures, unresolved = _compare(
            SPEC, "serve_ntier", _runs(wall_s=10.5), _runs(wall_s=8.0)
        )
        assert len(failures) == 1 and unresolved == []
        assert "serve_ntier" in failures[0] and "wall_s" in failures[0]
        assert "10.5" in failures[0] and "8" in failures[0]

    def test_within_bound_passes(self):
        # wall_s and sim_* by just under their 25% and 15% bounds.
        change = _runs(wall_s=1.24, sim_p50_s=1.14, peak_rss_mb=1.09)
        assert _compare(SPEC, "suite_cold", change, _runs()) == ([], [])

    def test_better_is_never_a_failure(self):
        change = _runs(wall_s=0.1, setup_s=0.1, inv_per_s=10.0)
        assert _compare(SPEC, "suite_cold", change, _runs()) == ([], [])

    @pytest.mark.parametrize(
        "name, value, fails",
        [
            ("inv_per_s", 0.70, True),
            ("inv_per_s", 0.80, False),
            ("inv_per_s", 3.00, False),
            ("served_frac", 0.97, True),
            ("served_frac", 0.99, False),
        ],
    )
    def test_higher_is_better_metrics(self, name, value, fails):
        failures, _ = _compare(
            SPEC, "fleet_chaos", _runs(**{name: value}), _runs()
        )
        assert bool(failures) is fails
        if fails:
            assert name in failures[0] and "higher is better" in failures[0]

    @pytest.mark.parametrize(
        "name, change, parent",
        [
            # The noise seen on a shared host: parent runs 5.99 and
            # 4.01 s, the change's median 32% above the parent's.
            ("wall_s", [6.5, 6.7], [5.99, 4.01]),
            ("inv_per_s", [0.5, 0.9], [1.0, 1.0]),
        ],
    )
    def test_overlapping_runs_are_unresolved_not_failed(self, name, change, parent):
        failures, unresolved = _compare(
            SPEC, "serve_ntier", _runs(**{name: change}), _runs(**{name: parent})
        )
        assert failures == []
        assert len(unresolved) == 1
        assert name in unresolved[0] and "runs overlap" in unresolved[0]

    def test_separated_runs_fail_even_when_noisy(self):
        failures, unresolved = _compare(
            SPEC, "burst_sweep", _runs(wall_s=[9.0, 12.0]), _runs(wall_s=[4.0, 7.0])
        )
        assert len(failures) == 1 and unresolved == []

    @pytest.mark.parametrize("side", ["change", "parent"])
    def test_metric_missing_on_either_side_fails(self, side):
        short = _runs()
        del short["sim_tail_s"]
        change, parent = (short, _runs()) if side == "change" else (_runs(), short)
        failures, _ = _compare(SPEC, "burst_sweep", change, parent)
        assert failures == [
            f"burst_sweep: sim_tail_s is missing from the {side} run"
        ]

    def test_metric_missing_without_parent_fails(self):
        short = _runs()
        del short["setup_s"]
        assert _compare(SPEC, "burst_sweep", short, None) == (
            ["burst_sweep: setup_s is missing from the change run"], []
        )


class TestParseRun:
    def test_reads_the_last_two_lines(self):
        run = bench.parse_run(_output(_values(wall_s=2.5), digest="abc"))
        assert run["correct"] is True and run["digest"] == "abc"
        assert run["metrics"]["wall_s"] == 2.5
        assert run["children"][0]["peak_rss_mb"] == 100.0

    @pytest.mark.parametrize(
        "stdout", ["", "no json here\n", "{}\n{}\n"],
        ids=["empty", "not-json", "no-fields"],
    )
    def test_unreadable_output_is_an_incorrect_run(self, stdout):
        run = bench.parse_run(stdout)
        assert run["correct"] is False and run["metrics"] == {}
        assert "unreadable perfbench output" in run["problems"][0]

    def test_nonzero_exit_is_an_incorrect_run(self):
        run = bench.parse_run(_output(_values()), returncode=1)
        assert run["correct"] is False
        assert run["problems"] == ["perfbench exited with 1"]


class TestCommand:
    def test_checkout_without_perfbench_exits_2(self, tmp_path, monkeypatch):
        fake = FakePerfbench(tmp_path)
        _install(monkeypatch, fake)
        with pytest.raises(SystemExit) as exc:
            cli(["bench", "--parent", str(tmp_path)])
        assert exc.value.code == 2
        assert fake.calls == []

    def test_parent_side_runs_the_parents_own_code(
        self, parent, tmp_path, monkeypatch
    ):
        fake = FakePerfbench(parent)
        _install(monkeypatch, fake)
        out = tmp_path / "bench.json"
        assert cli(["bench", "--seconds", "1", "--parent", str(parent),
                    "--out", str(out)]) == 0
        for argv, cwd, env in fake.calls:
            assert cwd in (parent, bench.ROOT)
            assert env["PYTHONPATH"].split(os.pathsep)[0] == str(cwd / "src")
            if "--workload" in argv:
                assert argv[1] == str(cwd / "perfbench" / "run.py")
            else:
                assert argv[1:] in (["-m", "repro", "run", "tco"],
                                    ["-m", "repro", "run", "fleet"])
        # ABBA per workload, then the change's traced run.
        first = [cwd for argv, cwd, _ in fake.calls
                 if "suite_cold" in argv]
        assert first == [parent, bench.ROOT, bench.ROOT, parent, bench.ROOT]
        report = json.loads(out.read_text())
        assert report["schema"] == "toss-bench/v2"
        assert list(report["workloads"]) == WORKLOADS
        assert set(report["experiments"]) == {"tco", "fleet"}
        assert report["experiments"]["tco"]["parent_s"] == [1.0, 1.0]
        entry = report["workloads"]["suite_cold"]
        assert entry["correct"] and entry["parent"]["correct"]
        assert entry["end_to_end"]["wall_s"] == 1.0
        assert report["units"]["wall_s"] == "s"
        assert "warm.wall_s" in entry["per_layer"]
        # Two untraced runs and the traced one, one child each.
        assert len(entry["children"]) == 3 and report["failures"] == []

    def test_each_side_is_the_median_of_its_runs(
        self, parent, tmp_path, monkeypatch
    ):
        walls = iter([1.0, 4.0, 2.0, 3.0])  # parent, change, change, parent

        fake = FakePerfbench(parent)

        def run(argv, **kwargs):
            result = fake.run(argv, **kwargs)
            if argv[-1] == "0" and "suite_cold" in argv:
                result.stdout = _output(_values(wall_s=next(walls)))
            return result

        _install(monkeypatch, fake, run)
        out = tmp_path / "bench.json"
        # 3.0 against 2.0 is more than 25% worse, but the runs overlap.
        assert cli(["bench", "--seconds", "1", "--parent", str(parent),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        entry = report["workloads"]["suite_cold"]
        assert entry["end_to_end"]["wall_s"] == 3.0
        assert entry["end_to_end_runs"]["wall_s"] == [4.0, 2.0]
        assert entry["parent"]["end_to_end"]["wall_s"] == 2.0
        assert report["failures"] == []
        assert len(report["unresolved"]) == 1
        assert report["unresolved"][0].startswith("suite_cold: wall_s median 3 s")

    def test_one_metric_worse_than_its_bound_exits_1(
        self, parent, monkeypatch, capsys
    ):
        fake = FakePerfbench(parent, change=_output(_values(peak_rss_mb=1.2)))
        _install(monkeypatch, fake)
        assert cli(["bench", "--seconds", "1", "--parent", str(parent)]) == 1
        err = capsys.readouterr().err
        assert err.count("peak_rss_mb") == len(WORKLOADS)

    def test_incorrect_change_run_fails_with_good_numbers(
        self, parent, monkeypatch, capsys
    ):
        bad = _output(_values(), correct=False,
                      problems=("digest differs from the recorded d0",))
        fake = FakePerfbench(parent, change=bad)
        _install(monkeypatch, fake)
        assert cli(["bench", "--seconds", "1", "--parent", str(parent)]) == 1
        assert "digest differs from the recorded d0" in capsys.readouterr().err

    def test_incorrect_parent_run_fails_without_comparing(
        self, parent, monkeypatch, capsys
    ):
        fake = FakePerfbench(parent)
        # A failed run writes 0.0 for what it could not measure.
        fake.parent_out = _output(
            {name: 0.0 for name in _values()}, correct=False,
            problems=("child 0 exited with 1",),
        )
        _install(monkeypatch, fake)
        assert cli(["bench", "--seconds", "1", "--parent", str(parent)]) == 1
        err = capsys.readouterr().err
        assert "suite_cold: parent run incorrect: child 0 exited with 1" in err
        assert "worse than the parent" not in err
        assert err.count("FAIL ") == len(WORKLOADS)

    def test_runs_disagreeing_on_the_digest_are_incorrect(
        self, parent, monkeypatch, capsys
    ):
        fake = FakePerfbench(parent)
        outputs = iter([_output(_values(), digest="a"), _output(_values(), digest="b")])

        def run(argv, **kwargs):
            result = fake.run(argv, **kwargs)
            if "--trace" in argv and argv[-1] == "0" and kwargs["cwd"] == bench.ROOT:
                result.stdout = next(outputs, result.stdout)
            return result

        _install(monkeypatch, fake, run)
        assert cli(["bench", "--seconds", "1", "--parent", str(parent)]) == 1
        assert "digests differ between runs" in capsys.readouterr().err

    def test_experiment_slower_than_its_bound_fails(
        self, parent, monkeypatch, capsys
    ):
        fake = FakePerfbench(parent)

        def run(argv, **kwargs):
            result = fake.run(argv, **kwargs)
            if argv[-1] == "fleet" and kwargs["cwd"] == bench.ROOT:
                fake.clock += 1.0  # two seconds against the parent's one
            return result

        _install(monkeypatch, fake, run)
        assert cli(["bench", "--seconds", "1", "--parent", str(parent)]) == 1
        err = capsys.readouterr().err
        assert "run fleet" in err and "run tco" not in err

    def test_without_parent_runs_the_change_once_per_mode(
        self, tmp_path, monkeypatch
    ):
        fake = FakePerfbench(tmp_path / "none")
        _install(monkeypatch, fake)
        out = tmp_path / "bench.json"
        assert cli(["bench", "--out", str(out)]) == 0
        assert len(fake.calls) == 2 * len(WORKLOADS)
        for argv, cwd, _ in fake.calls:
            assert cwd == bench.ROOT
            assert argv[argv.index("--seed") + 1] == str(bench.SEED)
            assert argv[argv.index("--seconds") + 1] == str(SPEC["run_seconds"])
        report = json.loads(out.read_text())
        assert report["config"]["parent"] is None
        assert "experiments" not in report
        assert "parent" not in report["workloads"]["burst_sweep"]
