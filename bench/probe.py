"""Fixed reference computations that track the machine's current speed.

On a small shared machine the same Python work can take twice as long from
one minute to the next, so a task's wall time alone does not compare two
commits.  A probe is standard-library code shaped like one of the package's
inner loops; it never changes with the program.  Its time, measured in the
same process and interleaved with the task, slows and speeds up with the
task, so the ratio task time / probe time stays steady while both swing.
Different kinds of work swing by different amounts, so each workload uses
the probe shaped like its own hot loop.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time

_N = 25
_TABLE = [[(i * 7 + j * 3 + i * j) % _N for j in range(_N)] for i in range(_N)]
_PARTIAL = [[(i * 3 + j) % 4 if (i + j) % 5 else None for j in range(4)] for i in range(4)]


def alloc_chunk() -> float:
    """Seconds taken by one fixed chunk shaped like ``satisfies``: an
    assignment dict per point of a product of indices, and table lookups."""
    t = _TABLE
    t0 = time.perf_counter()
    misses = 0
    for values in itertools.product(range(_N), repeat=2):
        asg = dict(zip(("x", "y"), values))
        misses += t[t[asg["x"]][asg["y"]]][asg["x"]] != t[asg["x"]][t[asg["y"]][asg["x"]]]
    return time.perf_counter() - t0


def search_chunk() -> float:
    """Seconds taken by one fixed chunk shaped like the census search: an
    associativity scan of a partial table, skipping undefined cells."""
    t = _PARTIAL
    rng = range(4)
    t0 = time.perf_counter()
    misses = 0
    for _ in range(80):
        for x in rng:
            tx = t[x]
            for y in rng:
                xy = tx[y]
                if xy is None:
                    continue
                for z in rng:
                    lhs, yz = t[xy][z], t[y][z]
                    if lhs is None or yz is None:
                        continue
                    rhs = tx[yz]
                    misses += rhs is not None and rhs != lhs
    return time.perf_counter() - t0


class ProbeThread:
    """Runs a probe chunk every PERIOD_S seconds beside a task that cannot
    be split, such as a whole ``verify-paper`` run.  A chunk holds the
    interpreter lock while it runs, so it is timed at the speed the task sees,
    and its time is taken off the task's time afterwards."""

    PERIOD_S = 0.1

    def __init__(self, chunk):
        self.chunk = chunk
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(self.PERIOD_S):
            self.samples.append(self.chunk())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.overlap = sum(self.samples)  # probe time inside the task's window
        if not self.samples:  # a task shorter than one period
            self.samples.append(self.chunk())

    def mean(self) -> float:
        # the mean, not the median: the task's time is the sum of its speed
        # over the window, and a slow stretch must weigh as long as it lasts
        return statistics.fmean(self.samples)
