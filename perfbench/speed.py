"""Host speed probe: scales measured times to a fixed reference speed.

The 2-vCPU VM this benchmark was tuned on changes speed by up to 2x
within seconds, and the process's CPU time moves with its wall time, so
the vCPU itself runs slower. Raw times of the same code then spread across runs by more
than any bound a metric may have. The probe runs a fixed pure-Python
reference kernel every ``PERIOD_S`` seconds from a ``SIGALRM`` handler,
while the operations run, and records how long each kernel call takes.
An operation's time is then scaled by ``REFERENCE_S`` over the mean
kernel time around and during it: a time at the host speed where the
kernel takes ``REFERENCE_S``. The kernel is part of the benchmark, not
of shallowperm, so a change to the library does not change it.
"""
from __future__ import annotations

import bisect
import gc
import itertools
import json
import signal
import statistics
import time

PERIOD_S = 0.05
# The kernel's time on the speed all scaled times refer to. On the 2-vCPU
# VM the benchmark was tuned on, the median kernel call of a run took
# 0.84 to 1.09 ms.
REFERENCE_S = 0.001

_PERMS = tuple(itertools.permutations(range(6)))[::4]
_RECORDS = tuple({"n": n, "label": f"count --n {n} --avoid 231", "rows": [str(k) for k in range(8)]}
                 for n in range(24))


def kernel() -> int:
    """Fixed interpreter work like shallowperm's: inversion counting over
    permutations with small allocations, then the string and JSON handling
    of its CLI. In trials, the arithmetic half alone followed the CLI-heavy
    ``requests`` workload less closely."""
    by_inversions = {}
    for p in _PERMS:
        inversions = 0
        for i in range(6):
            pi = p[i]
            for j in range(i + 1, 6):
                if pi > p[j]:
                    inversions += 1
        by_inversions.setdefault(inversions, []).append(list(p))
    text = []
    for record in _RECORDS:
        parts = json.dumps(record, sort_keys=True).split(",")
        text.append("|".join(part.strip() for part in parts).upper())
        text.append(f"{record['n']:>4} {len(parts)}")
    return len(by_inversions) + len("".join(text))


def sample() -> tuple[float, float]:
    """(start, seconds) of one kernel call, with the garbage collector off
    so that the program's heap does not change the kernel's cost."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return start, time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    """Samples the kernel every ``PERIOD_S`` seconds while it is entered.

    Use as a context manager around the timed operations, entered once or
    several times, then, after it is left, call ``scaled`` for each
    operation's (start, end) interval.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self.samples.append(sample())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())
        return False

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """The seconds the program ran between ``start`` and ``end``, with
        the kernel calls made in between taken out, raw and scaled to
        ``REFERENCE_S``. The speed is the mean kernel time from the last
        sample before ``start`` to the first one after ``end``."""
        if len(self._starts) != len(self.samples):
            self._starts = [t for t, _ in self.samples]
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_left(self._starts, end)
        busy = end - start - sum(seconds for _, seconds in self.samples[first:last])
        around = self.samples[max(first - 1, 0):last + 1]
        return busy, busy * REFERENCE_S / statistics.fmean(s for _, s in around)

    def summary(self) -> dict:
        seconds = sorted(s for _, s in self.samples)
        return {
            "period_s": PERIOD_S,
            "reference_s": REFERENCE_S,
            "samples": len(seconds),
            "kernel_s_min_median_max": [seconds[0], statistics.median(seconds), seconds[-1]],
            "kernel_s_total": sum(seconds),
        }
