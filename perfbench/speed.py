"""Host-speed calibration: times are reported at a fixed reference speed.

The benchmark runs on a shared host whose speed drifts: a fixed pure-Python
loop took from 0.21 to 0.37 s per chunk within one 40 s window (2-vCPU Xeon
VM at 2.0 GHz), in spells of seconds, with process CPU time rising exactly
as much as wall time. A run-level median cannot average that away.

So the worker times a fixed calibration pass (`calibrate`) before every job
and after every round, and, while an untraced job runs, once every
`INTERVAL_S` of wall time from a `SIGALRM` handler (`Sampler`). The passes
taken inside a job are subtracted from its time. `scale` then divides the
job's own time by the mean of its speed samples: the passes taken inside
it, and the median of the `WINDOW` passes on each side of it, one sample per
edge. Multiplied by `REF_PASS_S`, that is the time the job would take on a
host where one pass takes `REF_PASS_S`. The pass does the kind of work the
engine does (tuples and frozensets in dicts and sets, rows grouped in an
index, sorting, string building), so a slow spell stretches both alike and
the ratio stays put, while a change to the engine moves the job and not the
pass. Of the kernels tried against real jobs over 150 s of a drifting host,
this mix tracked them best: a compact frozenset loop alone, or the row index
alone, tracked one workload well and another badly, and a walk over a large
dict tracked none.

A pass adds four frames to the stack of the job it interrupts. A job that
recurses to within four frames of the recursion limit can therefore raise
`RecursionError` under the sampler where it would not without it.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import List, Sequence

REF_PASS_S = 0.0015  # about one pass's median time on the 2-vCPU Xeon VM above
WINDOW = 3  # passes taken on each side of a job
INTERVAL_S = 0.02  # wall time between passes inside a job


def _pair(a: int, b: int):
    return (a, b) if a < b else (b, a)


def _kernel() -> int:
    seen = {}
    found = set()
    for i in range(300):
        key = _pair(i % 37, (i * 7) % 41)
        group = frozenset((key[0], key[1], i % 5))
        seen[group] = seen.get(group, 0) + 1
        if group not in found and len(group) == 3:
            found.add(group)
    ordered = sorted(found, key=sorted)
    rows = [(i, f"a{i % 50}", i * 3) for i in range(1250)]
    index = {}
    for row in rows:
        index.setdefault(row[1], []).append(row)
    grouped = sorted(index.items(), key=lambda kv: len(kv[1]))
    return len(",".join(f"t{min(g)}_{max(g)}" for g in ordered)) + len(grouped)


def calibrate() -> float:
    """Seconds one calibration pass takes now."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def scale(seconds: float, before: Sequence[float], inside: Sequence[float],
          after: Sequence[float]) -> float:
    """`seconds` at the reference speed, given the passes timed around and
    inside it."""
    samples = [statistics.median(before), *inside, statistics.median(after)]
    return seconds * REF_PASS_S / statistics.fmean(samples)


class Sampler:
    """Takes a calibration pass every `INTERVAL_S` of wall time while armed."""

    def __init__(self) -> None:
        self.passes: List[float] = []
        signal.signal(signal.SIGALRM, self._take)

    def _take(self, signum, frame) -> None:
        self.passes.append(calibrate())

    def start(self) -> None:
        self.passes = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> List[float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.passes
