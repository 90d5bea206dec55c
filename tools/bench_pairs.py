"""Alternating A/B runs of the benchmark harness on two checkouts.

Usage (from anywhere):

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --number N \
        [--pairs 10] [--seed 1]

For each workload of ``BENCHMARK.json``, beside this script's directory, in
the order that file lists them, it runs ``python3 bench/run.py --workload W
--seed S --seconds T``, with T that file's ``run_seconds``, once in each
checkout per pair, one run at a time, the parent first in even-numbered
pairs and the change first in odd ones.  Pair i of the k-th workload runs at
seed ``--seed + k * pairs + i``, the same seed on both sides, so every pair
of the file has its own seed.  The end-to-end metrics of each run are read
from the last line of its stdout.

It writes ``BENCH_<N>.json`` into the current directory, naming each side by
its checkout directory: every run, and per workload and metric the quartiles
of each side, the relative change of the medians, the parent's interquartile
range and the number of pairs the change won, with the direction of each
metric read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def directions(spec: dict) -> dict:
    """Metric name -> "lower" or "higher", for the end-to-end metrics."""
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def schedule(workloads, pairs: int, first_seed: int) -> list:
    """(workload, seed, side) of every run, in the order they run."""
    order = []
    for k, workload in enumerate(workloads):
        for i in range(pairs):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order += [(workload, first_seed + k * pairs + i, side) for side in sides]
    return order


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One harness run in checkout: its last stdout line, metric values flattened."""
    proc = subprocess.run(
        ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _quartiles(values: list) -> list:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(median, 4), round(q3, 4)]


def summarize(runs: list, better: dict) -> dict:
    """Per workload: the seed range, the pair count, the failures and, per
    metric, each side's quartiles and runs, the relative change of the
    medians, the parent's IQR and the pairs (same seed) the change won.  A
    tie wins for neither side.  Metrics absent from better count lower as
    better."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        side = {s: {r["seed"]: r for r in mine if r["side"] == s} for s in ("parent", "change")}
        seeds = sorted(side["parent"].keys() & side["change"].keys())
        entry = {"seeds": [seeds[0], seeds[-1]], "pairs": len(seeds)}
        for name in side["parent"][seeds[0]]["metrics"]:
            parent = [side["parent"][s]["metrics"][name] for s in seeds]
            change = [side["change"][s]["metrics"][name] for s in seeds]
            sign = -1 if better.get(name, "lower") == "higher" else 1
            parent_q, change_q = _quartiles(parent), _quartiles(change)
            entry[name] = {
                "parent_q1_median_q3": parent_q,
                "change_q1_median_q3": change_q,
                "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "median_change": round(change_q[1] / parent_q[1] - 1, 4),
                "parent_iqr": round(parent_q[2] - parent_q[0], 4),
                "parent_runs": parent,
                "change_runs": change,
            }
        for s in ("parent", "change"):
            entry[f"{s}_failed"] = sum(side[s][seed]["failed"] for seed in seeds)
            entry[f"{s}_attempted"] = sum(side[s][seed]["attempted"] for seed in seeds)
            entry[f"{s}_all_correct"] = all(side[s][seed]["correct"] for seed in seeds)
        summary[workload] = entry
    return summary


def describe(summary: dict) -> list:
    """One line per workload: each metric's medians, change and pair wins."""
    lines = []
    for workload, entry in summary.items():
        parts = []
        for name, m in entry.items():
            if isinstance(m, dict):
                parts.append(
                    f"{name} median {m['parent_q1_median_q3'][1]} -> {m['change_q1_median_q3'][1]} "
                    f"({m['median_change']:+.1%}, change better in {m['change_better_pairs']} "
                    f"of {entry['pairs']}; parent IQR {m['parent_iqr']})")
        parts.append(f"failed {entry['parent_failed']} of {entry['parent_attempted']} -> "
                     f"{entry['change_failed']} of {entry['change_attempted']}")
        lines.append(f"{workload}: " + "; ".join(parts))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs per side")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in checkouts.values():
        if not (path / "bench" / "run.py").is_file():
            parser.error(f"{path} holds no bench/run.py")
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"]
    runs = []
    for workload, seed, side in schedule([w["name"] for w in spec["workloads"]], args.pairs, args.seed):
        record = run_once(checkouts[side], workload, seed, seconds)
        runs.append({"workload": workload, "side": side, "seed": seed, **record})
        print(f"{workload} seed {seed} {side}: {record['metrics']}", file=sys.stderr)
    summary = summarize(runs, directions(spec))
    bytecode = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    report = {
        "change": checkouts["change"].name,
        "parent": checkouts["parent"].name,
        "machine": f"{os.cpu_count()}-core, {platform.system()} {platform.machine()}, "
                   f"{platform.python_implementation()} {platform.python_version()}",
        "harness": f"bench/run.py of each checkout, run by tools/bench_pairs.py: "
                   f"{args.pairs} alternating pairs per workload at --seconds {seconds:g}, "
                   f"consecutive seeds from {args.seed}, one run at a time, "
                   f"bytecode writing {bytecode}",
        "notes": describe(summary),
        "summary": summary,
        "runs": runs,
    }
    Path(f"BENCH_{args.number}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("\n".join(describe(summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
