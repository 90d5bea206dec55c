"""tools/bench_pairs.py: the run order and the summary of alternating pairs,
on fixed fake results; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_alternate_with_consecutive_seeds(pairs):
    assert pairs.schedule(("queries", "census"), 2, 100) == [
        ("queries", 100, "parent"), ("queries", 100, "change"),
        ("queries", 101, "change"), ("queries", 101, "parent"),
        ("census", 102, "parent"), ("census", 102, "change"),
        ("census", 103, "change"), ("census", 103, "parent"),
    ]


def test_directions_come_from_the_benchmark_declaration(pairs):
    spec = json.loads(pairs.SPEC.read_text())
    assert pairs.directions(spec) == {"setup_s": "lower", "peak_rss_mb": "lower", "task_probes": "lower"}


def _run(side, seed, probes, rate, failed=0):
    return {"workload": "queries", "side": side, "seed": seed, "failed": failed,
            "attempted": 100, "correct": not failed,
            "metrics": {"task_probes": probes, "rate": rate}}


def test_summary_of_fixed_results(pairs):
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [9.0, 12.0, 10.0, 14.0, 11.0]
    runs = [_run("change", 7, 0.0, 0.0)]  # unpaired: left out
    for seed, (p, c) in enumerate(zip(parent, change), 1):
        runs += [_run("parent", seed, p, p), _run("change", seed, c, c, failed=seed == 4)]
    entry = pairs.summarize(runs, {"task_probes": "lower", "rate": "higher"})["queries"]
    assert entry["seeds"] == [1, 5] and entry["pairs"] == 5
    probes = entry["task_probes"]
    # inclusive quartiles: of 10 11 12 13 14 and of 9 10 11 12 14
    assert probes["parent_q1_median_q3"] == [11.0, 12.0, 13.0]
    assert probes["change_q1_median_q3"] == [10.0, 11.0, 12.0]
    assert probes["parent_iqr"] == 2.0
    assert probes["median_change"] == round(11 / 12 - 1, 4)
    assert probes["parent_runs"] == parent and probes["change_runs"] == change
    # lower wins seeds 1, 3 and 5, seed 2 is a tie; higher wins seed 4 only
    assert probes["change_better_pairs"] == 3
    assert entry["rate"]["change_better_pairs"] == 1
    assert (entry["parent_failed"], entry["change_failed"]) == (0, 1)
    assert (entry["parent_attempted"], entry["change_attempted"]) == (500, 500)
    assert entry["parent_all_correct"] and not entry["change_all_correct"]
    line, = pairs.describe({"queries": entry})
    assert line.startswith("queries: task_probes median 12.0 -> 11.0 (-8.3%, change better in 3 of 5; parent IQR 2.0)")
    assert line.endswith("failed 0 of 500 -> 1 of 500")


def _fake_checkout(path, body):
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(body)
    return path


def test_a_failing_run_is_written_with_the_runs_before_it(pairs, tmp_path, monkeypatch, capsys):
    line = {"failed": 0, "attempted": 5, "correct": True, "metrics": {"task_probes": {"value": 7.0}}}
    parent = _fake_checkout(tmp_path / "parent", f"print({json.dumps(line)!r})\n")
    change = _fake_checkout(
        tmp_path / "change", "import sys\nsys.stderr.write('boom: no census\\n')\nsys.exit(3)\n"
    )
    monkeypatch.chdir(tmp_path)
    assert pairs.main([str(parent), str(change), "--number", "9", "--pairs", "2"]) == 1
    report = json.loads((tmp_path / "BENCH_9.json").read_text())
    # the first pair runs the parent first, so one run was made before the failure
    workload = json.loads(pairs.SPEC.read_text())["workloads"][0]["name"]
    assert report["runs"] == [{"workload": workload, "side": "parent", "seed": 1, "failed": 0,
                               "attempted": 5, "correct": True, "metrics": {"task_probes": 7.0}}]
    assert report["failed_run"] == {"workload": workload, "side": "change", "seed": 1,
                                    "exit_code": 3, "stderr_tail": "boom: no census"}
    assert "summary" not in report
    assert "exited 3: boom: no census" in capsys.readouterr().err


def test_verdicts_of_the_gain_rule_and_the_bound(pairs):
    spec = json.loads(pairs.SPEC.read_text())
    assert pairs.bounds(spec) == {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]  # IQR 1.5
    cases = {
        # name: (change runs, better, bound, gain, within bound)
        "nine_wins": ([p - 5 for p in parent[:9]] + [parent[9] + 1], "lower", 0.25, True, True),
        "eight_wins": ([p - 5 for p in parent[:8]] + [p + 1 for p in parent[8:]], "lower", 0.25, False, True),
        "within_iqr": ([p - 0.1 for p in parent], "lower", 0.25, False, True),
        "worse_in_bound": ([p * 1.2 for p in parent], "lower", 0.25, False, True),
        "worse_beyond": ([p * 1.3 for p in parent], "lower", 0.25, False, False),
        "higher_gain": ([p + 5 for p in parent], "higher", 0.1, True, True),
        "higher_beyond": ([p * 0.85 for p in parent], "higher", 0.1, False, False),
        "unbounded": ([p - 5 for p in parent], "lower", None, True, None),
    }
    runs = []
    for seed, p in enumerate(parent):
        for side in ("parent", "change"):
            metrics = {name: p if side == "parent" else case[0][seed] for name, case in cases.items()}
            runs.append({"workload": "queries", "side": side, "seed": seed, "failed": 0,
                         "attempted": 1, "correct": True, "metrics": metrics})
    better = {name: case[1] for name, case in cases.items()}
    bound = {name: case[2] for name, case in cases.items() if case[2] is not None}
    entry = pairs.summarize(runs, better, bound)["queries"]
    assert entry["nine_wins"]["parent_iqr"] == 1.5
    for name, (_, _, _, gain, within) in cases.items():
        assert (entry[name]["gain"], entry[name]["within_bound"]) == (gain, within), name
    line, = pairs.describe({"queries": entry})
    assert "parent IQR 1.5): gain, within bound;" in line
    assert ("worse_beyond median 100.0 -> 130.0 (+30.0%, change better in 0 of 10; "
            "parent IQR 1.5): no gain, beyond bound;") in line
    assert "unbounded median 100.0 -> 95.0 (-5.0%, change better in 10 of 10; parent IQR 1.5): gain;" in line
