"""varietylab benchmark: one workload, one run, one JSON line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload reproduce|census|queries \
        --seed N --seconds S --trace 0|1

Workloads (bench/README.md gives the reasons and the layer-to-metric table):

  reproduce  ``varietylab --jobs 1 verify-paper`` (through ``cli.main``) with
             VARIETYLAB_SEED=N; its stdout must equal bench/verify_paper.txt
             byte for byte.
  census     enumerate_algebras(n, mode) for n = 1..4 in both modes, once at
             jobs=1 and once at jobs=2, each in its own process; class counts,
             the order-4 histogram and the canonical tables are checked.
  queries    a closed loop, one client, of 3,340 seeded library calls per
             round; every answer is checked off the clock by another route.

Every timed repetition runs in a fresh interpreter.  Repetitions are repeated
until S seconds have passed (at least one).  Task time is reported in probe
units (bench/probe.py), which cancel the machine's changes of speed.  Set-up
time is measured in its own fresh interpreters, several times per run.  With
--trace 0 the run prints the end-to-end metrics; with --trace 1 each
repetition is run once untraced and once traced, and the run prints the
per-layer metrics, including the tracing overhead.  The last line of stdout
is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is 0 when a result was printed, 1 when the harness itself failed
(a child crashed or timed out, or a wrapped layer recorded no calls where it
must) and 2 when the checkout holds no varietylab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPS = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s

EXPECTED_COUNTS = {"is1": 1, "is2": 2, "is3": 6, "is4": 26,
                   "iz1": 1, "iz2": 3, "iz3": 17, "iz4": 249}
EXPECTED_IS4_HISTOGRAM = "B:4 B+ZM:2 K:1 L:1 M:4 N:3 SL:2 SL+M:2 SL+ZM:6 ZM:1"

# traced targets reported as <name>.calls and <name>.busy_s
CALLS_AND_BUSY = (
    "varieties.decide", "models.word_value_classes", "enumeration.classify",
    "models.check_axioms", "enumeration.canonical_form", "models.satisfies",
    "varieties.variety_of", "terms.parse_identity", "terms.parse_word",
    "derivations.parse_script", "derivations.replay", "lattice.build_lattice",
)
VERIFY_CHECKS = {
    "verify.check06_s": "verify.check_06_decision_oracle_equivalence",
    "verify.check07_s": "verify.check_07_normal_form_completeness",
    "verify.check11_s": "verify.check_11_subdirect_decomposition",
    "verify.classification_s": "verify.invariant_classification_coincidence",
    "verify.substitution_closure_s": "verify.invariant_substitution_closure",
    "verify.examples_s": "verify.example_checks",
}
CACHE_RATIOS = ("terms.content", "terms.los", "terms.contains_square")

# layers each workload must exercise; a zero count there fails the run
EXERCISED = {
    "reproduce": (
        "varieties.decide", "models.word_value_classes", "enumeration.classify",
        "models.check_axioms", "enumeration.canonical_form", "models.satisfies",
        "varieties.variety_of", "terms.parse_identity", "terms.parse_word",
        "derivations.parse_script", "derivations.replay", "lattice.build_lattice",
        "enumeration.enumerate_algebras", *VERIFY_CHECKS.values(),
    ),
    "census": (
        "models.check_axioms", "enumeration.canonical_form", "models.satisfies",
        "varieties.variety_of", "enumeration.enumerate_algebras",
    ),
    "queries": (
        "varieties.decide", "models.satisfies", "varieties.variety_of",
        "terms.parse_identity", "terms.parse_word", "derivations.parse_script",
        "derivations.replay",
    ),
}
# names bound by ``from ... import`` whose wrappers must see calls
EXERCISED_SITES = {
    "reproduce": tuple(
        f"varietylab.verify:{qual}" for qual in (
            "varieties.decide", "models.satisfies", "models.word_value_classes",
            "enumeration.classify", "enumeration.canonical_form",
            "lattice.build_lattice"))
    + ("varietylab.enumeration:models.check_axioms",),
    "census": ("varietylab.enumeration:models.check_axioms",),
    "queries": (),
}


class HarnessError(RuntimeError):
    """The benchmark could not measure: a child crashed or timed out."""


class Harness:
    """Runs the children of one benchmark run within its time limit."""

    def __init__(self, seed: int, seconds: float, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), VARIETYLAB_SEED=str(seed))
        self.setups = []

    def child(self, task: str, *args: str) -> dict:
        """Run bench/child.py to completion and return its JSON result."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError("run time limit reached")
        argv = [sys.executable, str(BENCH / "child.py"), task, *args]
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise HarnessError(f"child {task} {' '.join(args)} timed out") from None
        lines = out.splitlines()
        if proc.returncode != 0 or not lines:
            raise HarnessError(f"child {task} {' '.join(args)} exited {proc.returncode}: "
                               f"{err[-2000:]}")
        return json.loads(lines[-1])

    def measure_setup(self):
        self.setups.append(self.child("setup")["setup_s"])

    def repetitions(self):
        """Yield 0, 1, 2, ... until the run's measuring time is spent.

        Untraced runs measure set-up time once before each repetition, so
        its samples spread over the whole run, and top up to SETUP_REPS."""
        if not self.trace:
            self.child("setup")  # untimed: fills the bytecode cache
        start = time.monotonic()
        rep = 0
        while rep == 0 or time.monotonic() - start < self.seconds:
            if not self.trace:
                self.measure_setup()
            yield rep
            rep += 1
        while not self.trace and len(self.setups) < SETUP_REPS:
            self.measure_setup()


class Outcome:
    """What one run measured: operations, failures and raw samples."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.task_s = []  # untraced task time per repetition
        self.task_probes = []  # the same, divided by the probe time
        self.overheads = []  # traced minus untraced task time, per repetition
        self.traces = []  # trace counters per traced repetition
        self.extra = {}  # per-layer values measured untraced

    def op(self, ok: bool, what: str):
        self.ops(1, [] if ok else [what])

    def ops(self, attempted: int, failures: list):
        self.attempted += attempted
        self.failures.extend(failures)

    def sample(self, data: dict, traced: bool):
        """Record one repetition.  A traced one follows the untraced one of
        the same repetition; its overhead is compared in probe units, so a
        change of machine speed between the two does not show as overhead."""
        ratio = data["task_s"] / data["probe_s"]
        if traced:
            self.traces.append(data["trace"])
            self.overheads.append((ratio - self.task_probes[-1]) * data["probe_s"])
        else:
            self.task_s.append(data["task_s"])
            self.task_probes.append(ratio)


def workload_reproduce(h: Harness, trace: bool) -> Outcome:
    expected = (BENCH / "verify_paper.txt").read_text(encoding="utf-8")
    res = Outcome()
    for rep in h.repetitions():
        for traced in (False, True) if trace else (False,):
            data = h.child("verify", *(("--trace",) if traced else ()))
            res.op(data["exit"] == 0 and data["stdout"] == expected,
                   f"{'traced ' * traced}verify-paper rep {rep}: exit {data['exit']}, "
                   f"transcript {'matches' if data['stdout'] == expected else 'differs'}")
            res.sample(data, traced)
    return res


def workload_census(h: Harness, trace: bool) -> Outcome:
    res = Outcome()
    reference = None
    jobs2 = []
    leaves_ratio = []

    def gate(data, label):
        nonlocal reference
        if reference is None:
            reference = data["tables"]
        for key, want in EXPECTED_COUNTS.items():
            ok = data["counts"].get(key) == want
            if key == "is4":
                ok = ok and data["is4_histogram"] == EXPECTED_IS4_HISTOGRAM
            res.op(ok, f"{label} {key}: {data['counts'].get(key)} classes "
                   f"(histogram {data['is4_histogram']})")
        res.op(data["tables"] == reference, f"{label}: canonical tables differ from jobs=1")

    for rep in h.repetitions():
        data = h.child("census", "--jobs", "1")
        gate(data, f"jobs=1 rep {rep}")
        res.sample(data, False)
        if trace or rep == 0:  # untraced runs need jobs=2 only for the gate
            data = h.child("census", "--jobs", "2")
            gate(data, f"jobs=2 rep {rep}")
            jobs2.append(data["task_s"])
        if trace:
            data = h.child("census", "--jobs", "1", "--trace")
            gate(data, f"traced jobs=1 rep {rep}")
            res.sample(data, True)
            leaves = data["trace"]["sites"]["varietylab.enumeration:models.check_axioms"][0]
            leaves_ratio.append(sum(data["counts"].values()) / leaves)
    res.extra["client.census_jobs2_s"] = statistics.median(jobs2)
    if leaves_ratio:
        res.extra["enumeration.classes_per_leaf"] = statistics.median(leaves_ratio)
    return res


def workload_queries(h: Harness, trace: bool) -> Outcome:
    res = Outcome()
    latencies = []
    for rep in h.repetitions():
        args = ("--seed", str(h.seed), "--rep", str(rep))
        data = h.child("queries", *args)
        res.ops(len(data["latencies"]), data["errors"])
        res.sample(data, False)
        latencies.extend(data["latencies"])
        if trace:
            data = h.child("queries", *args, "--trace")
            res.ops(len(data["latencies"]), ["traced " + e for e in data["errors"]])
            res.sample(data, True)
    res.extra["client.query_p50_us"] = statistics.median(latencies) * 1e6
    res.extra["client.query_p99_us"] = statistics.quantiles(latencies, n=100)[98] * 1e6
    res.extra["client.queries_per_s"] = len(latencies) / sum(res.task_s)
    return res


WORKLOADS = {"reproduce": workload_reproduce, "census": workload_census,
             "queries": workload_queries}


def per_layer(workload: str, res: Outcome) -> dict:
    """Per-layer metrics: medians over the traced repetitions."""
    for trace in res.traces:
        totals = trace["totals"]
        idle = [q for q in EXERCISED[workload] if totals[q][0] == 0]
        idle += [s for s in EXERCISED_SITES[workload] if trace["sites"].get(s, [0])[0] == 0]
        if idle:
            raise HarnessError(f"traced {workload} recorded no calls at: {', '.join(idle)}")

    def med(fn):
        return statistics.median(fn(t) for t in res.traces)

    m = {}
    for qual in CALLS_AND_BUSY:
        m[f"{qual}.calls"] = (med(lambda t: t["totals"][qual][0]), "count")
        m[f"{qual}.busy_s"] = (med(lambda t: t["totals"][qual][1]), "s")
    for name, qual in VERIFY_CHECKS.items():
        m[name] = (med(lambda t: t["totals"][qual][1]), "s")
    m["models.check_axioms.reject_ratio"] = (med(
        lambda t: t["totals"]["models.check_axioms"][3]
        / max(1, t["totals"]["models.check_axioms"][0])), "ratio")
    m["enumeration.search_self_s"] = (
        med(lambda t: t["totals"]["enumeration.enumerate_algebras"][2]), "s")
    for qual in CACHE_RATIOS:
        m[f"{qual}.hit_ratio"] = (med(
            lambda t: t["caches"][qual][0] / max(1, sum(t["caches"][qual]))), "ratio")
    units = {"client.census_jobs2_s": "s", "client.query_p50_us": "us",
             "client.query_p99_us": "us", "client.queries_per_s": "1/s",
             "enumeration.classes_per_leaf": "ratio"}
    for name, unit in units.items():
        m[name] = (res.extra.get(name, 0.0), unit)
    m["client.task_s"] = (statistics.median(res.task_s), "s")
    m["trace.overhead_s"] = (statistics.median(res.overheads), "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "varietylab" / "__init__.py").is_file():
        print(f"error: no varietylab sources under {SRC}", file=sys.stderr)
        return 2
    h = Harness(args.seed, args.seconds, bool(args.trace))
    try:
        res = WORKLOADS[args.workload](h, h.trace)
        if args.trace:
            metrics = per_layer(args.workload, res)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            metrics = {"setup_s": (statistics.median(h.setups), "s"),
                       "peak_rss_mb": (peak_kb / 1024, "MB"),
                       "task_probes": (statistics.median(res.task_probes), "probe")}
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for what in res.failures[:10]:
        print(f"FAILED {what}", file=sys.stderr)
    result = {
        "correct": not res.failures,
        "attempted": res.attempted,
        "failed": len(res.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
