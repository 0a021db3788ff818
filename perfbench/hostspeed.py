"""Host-speed reference for the benchmark's timings.

The CPU speed this benchmark gets from a shared host drifts by 30-45 %
over seconds to minutes, for every process alike: a fixed pure-Python
loop slows down with the workload, and process CPU time drifts as much
as wall time.  Timings of whole runs made minutes apart then differ by
more than any bound a change could be judged by.

A Speed interleaves short slices of fixed reference work with the
workload (one slice at most every SAMPLE_EVERY seconds, between items)
and records how long each took.  A workload time is then reported at
the reference speed: multiplied by NOMINAL_S over the median slice time
measured around it.  The reference work uses the interpreter features
ringterp's hot loops use (closures, memo dicts, slotted objects, small
big-integer arithmetic) and no ringterp code, so a change to ringterp
moves the workload time and not the slices.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# Median slice time on the machine of the reference figures (README.md);
# a scaled time is what that machine measured at its median speed.
NOMINAL_S = 0.0015
SAMPLE_EVERY = 0.1  # seconds between slices, at most one slice per item
WINDOW = 0.5  # slices this close to an interval speak for it
LEAST = 3  # slices used at least, the nearest ones


class _Stage:
    __slots__ = ("step", "memo")

    def __init__(self, step) -> None:
        self.step = step
        self.memo: dict[int, int] = {}

    def at(self, x: int) -> int:
        got = self.memo.get(x)
        if got is None:
            got = self.step(x)
            self.memo[x] = got
        return got


def reference_work() -> int:
    """A fixed amount of interpreter work, about 1.5 ms."""
    acc = 0
    for rep in range(6):
        third = _Stage(lambda x: (1 << x) // 3)
        five = _Stage(lambda x, r=rep: (5 + r) << x)
        prod = _Stage(lambda x: (third.at(x) * five.at(x)) >> x)
        total = _Stage(lambda x: third.at(x) + prod.at(x))
        for x in range(48):
            for y in (x, x + 1):
                if total.at(y) > prod.at(y):
                    acc += 1
        table: dict[tuple[int, int], int] = {}
        for i in range(300):
            key = (i & 31, rep)
            table[key] = table.get(key, 0) + (acc * 31 + i) % 1000003
        acc += len(table)
    return acc


class Speed:
    """Reference slices taken during a run, and the scale they give."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        for _ in range(5):  # warm-up, not recorded
            reference_work()
        self.sample()

    def sample(self) -> None:
        clock = time.perf_counter
        enabled = gc.isenabled()
        gc.disable()
        start = clock()
        reference_work()
        taken = clock() - start
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.seconds.append(taken)

    def maybe_sample(self) -> None:
        """Take a slice if the last one is SAMPLE_EVERY seconds old."""
        if time.perf_counter() - self.starts[-1] >= SAMPLE_EVERY:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median slice within WINDOW of [start, end],
        or of the LEAST slices nearest it if fewer lie there."""
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, end + WINDOW)
        while hi - lo < LEAST and (lo > 0 or hi < len(self.starts)):
            before = start - self.starts[lo - 1] if lo > 0 else float("inf")
            after = (self.starts[hi] - end if hi < len(self.starts)
                     else float("inf"))
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.median(self.seconds[lo:hi])

    def median_ms(self) -> float:
        return statistics.median(self.seconds) * 1e3
