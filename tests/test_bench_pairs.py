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
