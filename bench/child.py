"""One timed repetition, run by ``run.py`` in a fresh interpreter.

Usage: python3 bench/child.py TASK [--jobs N] [--seed S] [--rep R] [--trace]

TASK is ``setup``, ``census``, ``queries`` or ``verify``.  The last line of
stdout is a JSON object with the repetition's timings, outputs and, with
--trace, the per-layer counters.  A fresh interpreter per repetition keeps
the package's process-wide caches (the lru_caches and the census cache) from
making a repeated call almost free.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time

from probe import ProbeThread, search_chunk


def _check_origin():
    # the package must come from the checkout's src/, never from site-packages
    import varietylab

    src = os.path.realpath(os.environ["PYTHONPATH"].split(os.pathsep)[0])
    if not os.path.realpath(varietylab.__file__).startswith(src + os.sep):
        raise SystemExit(f"varietylab imported from {varietylab.__file__}, not {src}")


def task_setup(_args) -> dict:
    t0 = time.perf_counter()
    from varietylab import lattice, varieties

    varieties.registry()
    lattice.build_lattice()
    return {"setup_s": time.perf_counter() - t0}


def _timing(elapsed: float, probe) -> dict:
    return {"task_s": elapsed - probe.overlap, "probe_s": probe.mean()}


def _tracer(args):
    if not args.trace:
        return None
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def task_census(args) -> dict:
    from varietylab import enumeration
    from varietylab.terms import Mode

    tracer = _tracer(args)
    reports = []
    with ProbeThread(search_chunk) as probe:
        t0 = time.perf_counter()
        for mode in (Mode.IS, Mode.IZ):
            for order in (1, 2, 3, 4):
                reports.append(enumeration.enumerate_algebras(order, mode, jobs=args.jobs))
        elapsed = time.perf_counter() - t0
    out = _timing(elapsed, probe)
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    out["counts"] = {f"{r.mode.value}{r.order}": r.count for r in reports}
    is4 = next(r for r in reports if r.mode is Mode.IS and r.order == 4)
    out["is4_histogram"] = " ".join(
        f"{v}:{is4.per_variety[v]}" for v in sorted(is4.per_variety, key=str))
    out["tables"] = [
        bytes([a.order, a.distinguished, *(v for row in a.table for v in row)]).hex()
        for r in reports for a in r.algebras
    ]
    return out


def task_queries(args) -> dict:
    import queries
    from tracing import delta
    from varietylab import lattice, varieties

    varieties.registry()
    lattice.build_lattice()
    calls = queries.make_round(args.seed, args.rep)
    scripts = queries.script_texts()
    tracer = _tracer(args)
    before = tracer.snapshot() if tracer else None
    answers, latencies, probes = queries.run_round(calls, scripts)
    out = {"task_s": sum(latencies), "probe_s": statistics.fmean(probes),
           "latencies": latencies}
    if tracer is not None:
        out["trace"] = delta(tracer.snapshot(), before)
    out["errors"] = queries.check_round(calls, answers)
    return out


def task_verify(args) -> dict:
    import io

    from varietylab import cli

    tracer = _tracer(args)
    buf = io.StringIO()
    with ProbeThread(search_chunk) as probe, contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(["--jobs", "1", "verify-paper"])
        elapsed = time.perf_counter() - t0
    out = _timing(elapsed, probe)
    out.update(exit=code, stdout=buf.getvalue())
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    return out


TASKS = {"setup": task_setup, "census": task_census, "queries": task_queries,
         "verify": task_verify}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("task", choices=sorted(TASKS))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    result = TASKS[args.task](args)
    _check_origin()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
