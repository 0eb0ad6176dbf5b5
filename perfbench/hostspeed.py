"""The host's speed during a run, measured by three fixed pure-Python loops.

On a shared host the same check runs up to ~1.5 times slower when other
tenants are busy, and their load changes from minute to minute, so the
times of whole runs move together. Three loops that share no code with
the package are timed between checks all through the run:

- `arith`: integer arithmetic, no allocation;
- `small`: updates of a dict of a few hundred tuple keys, which stays in
  the processor's first-level cache;
- `big`: a dict of 10,000 tuple keys mapped to frozensets, a few MB.

`factor()` is the geometric mean, over the loops, of the loop's median time
over its reference time below: 1 on the reference host at its usual shared
speed, 0.8 when it runs 20 % faster. The host's speed also changes within
a run, for seconds at a time, so `run.py` divides each check time by the
factor of the loops timed within `WINDOW` seconds of the check. The loops
track the checks only in part: neither the interpreter's work nor its
memory traffic matches theirs, and tenants slow the two by different
amounts. Over 5 seeds of each workload,
on a host whose speed moved by up to a third between runs, the spread
(interquartile distance over median) of the sum of per-instance median
check times went from 0.22 as timed to 0.05 so divided on `descriptor`,
and from 0.13 to 0.07 on `class_oracle`; that of the median check time
from 0.32 to 0.03 and from 0.18 to 0.04.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Median seconds of one unit of each loop on the reference host (2 vCPU,
# Python 3.11.7) at its usual shared speed.
REFERENCE = {"arith": 1.8e-3, "small": 1.2e-3, "big": 12e-3}
# Share of the run's elapsed time spent timing the loops.
SHARE = 0.08
# A check's factor uses the loops timed from this many seconds before it
# starts to this many after it ends, and the whole run's loops if that
# window holds fewer than MIN_SAMPLES of them.
WINDOW = 2.0
MIN_SAMPLES = 5


def _arith():
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


def _small():
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 31)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def _big():
    table = {}
    for i in range(10_000):
        table[(i, i * 7 % 1013)] = frozenset((i % 13, i % 17, i % 19))
    return sum(1 for key, value in table.items() if key[1] in value)


LOOPS = {"arith": _arith, "small": _small, "big": _big}


class HostSpeed:
    """Times of the loops over a run, taken so that they fill `SHARE` of
    the time since `start`."""

    def __init__(self, start):
        self.start = start
        self.at = []  # when each sample started, in order
        self.samples = []  # {loop: seconds} per sample
        self.spent = 0.0

    def sample(self):
        self.at.append(time.perf_counter())
        took = {}
        for name, loop in LOOPS.items():
            t0 = time.perf_counter()
            loop()
            took[name] = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += sum(took.values())

    def keep_up(self):
        """Time the loops until they have had their share of the run."""
        while self.spent < SHARE * (time.perf_counter() - self.start):
            self.sample()

    def medians(self, start=None, end=None):
        """Median seconds of each loop, over the samples from WINDOW before
        `start` to WINDOW after `end`, or over the run."""
        if not self.samples:
            self.sample()
        chosen = self.samples
        if start is not None:
            lo = bisect.bisect_left(self.at, start - WINDOW)
            hi = bisect.bisect_right(self.at, end + WINDOW)
            if hi - lo >= MIN_SAMPLES:
                chosen = self.samples[lo:hi]
        return {name: statistics.median(s[name] for s in chosen) for name in LOOPS}

    def factor(self, start=None, end=None):
        product = 1.0
        for name, median in self.medians(start, end).items():
            product *= median / REFERENCE[name]
        return product ** (1 / len(LOOPS))
