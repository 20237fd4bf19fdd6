"""Times scaled to a reference machine speed.

The machines this benchmark runs on share their cores with other work, and
the speed at which they run pure Python drifts up to 2.5-fold within a
minute, with no time reported as stolen.  A run therefore measures the
machine's speed next to the program's cost.  To take the machine out, a
``Pacer`` times a fixed, program-independent calibration kernel every
``INTERVAL_S`` of CPU time (from a ``SIGPROF`` timer), keeps those samples
on its own clock, which leaves out the time the kernel takes, and
scales each measured interval by ``REF_KERNEL_S`` over the median kernel
time sampled in and around it.  A reported millisecond is thus a
millisecond on a machine where the kernel takes ``REF_KERNEL_S``.  A change
to the program moves the scaled times as it moves the raw ones, since the
kernel runs none of its code.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# About the kernel's time between ordcalc queries on a 2-vCPU Xeon at
# 2.0 GHz with Python 3.11; only a unit, it never changes.
REF_KERNEL_S = 0.00025
# CPU seconds between two samples: about 2.5% of the run goes to the kernel,
# and a 15 ms step has ten samples in its window.
INTERVAL_S = 0.01
# Samples up to this far before and after an interval also describe it.
WINDOW_S = 0.05
MIN_SAMPLES = 3


# Zero-filled and never written, so copying it costs the writes of a fresh
# half megabyte and reads that the caches serve.
_ZEROS = bytes(1 << 19)


def kernel() -> int:
    """Fixed pure-Python work of the kind ordcalc does: reduce random words
    over two generators, hash them into a dict, sort them; then copy half a
    megabyte, as ordcalc writes out its certificates, in about a fifth of
    the kernel's time.  With the copy, the kernel's time follows the
    machine's speed about as ordcalc's own time does, on small and large
    certificates alike; without it, it swings further."""
    x = 12345
    seen: dict[tuple[int, ...], int] = {}
    total = 0
    for _ in range(15):
        word: list[int] = []
        for _ in range(40):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            code = (1, -1, 2, -2)[(x >> 16) % 4]
            if word and word[-1] == -code:
                word.pop()
            else:
                word.append(code)
        key = tuple(word)
        seen[key] = seen.get(key, 0) + 1
        total += sum(abs(c) for c in key) + len(sorted(key))
    return total + len(_ZEROS[1:])


class OverBudget(BaseException):
    """Raised where the program is when a watched stretch has used up its
    seconds at the reference speed.  A BaseException, so that the program's
    catch-all for internal errors does not swallow it."""


class Pacer:
    """Calibration samples taken while a run goes on, and the clock that
    leaves them out."""

    def __init__(self) -> None:
        self.spent = 0.0  # wall seconds inside the kernel so far
        self.times: list[float] = []  # clock time of each sample
        self.kernel_s: list[float] = []  # the kernel's wall seconds then
        self.sampling = False
        self.budget_s: float | None = None  # see ``watch``
        self.used_s = 0.0
        self.mark = 0.0

    def now(self) -> float:
        """``perf_counter`` minus the time spent sampling; retried when a
        sample lands between the two reads."""
        while True:
            spent = self.spent
            wall = time.perf_counter()
            if spent == self.spent:
                return wall - spent

    def sample(self, *_signal) -> None:
        if self.sampling:  # the timer fired again inside a sample
            return
        self.sampling = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            took = time.perf_counter() - start
        finally:
            self.sampling = False
            if enabled:
                gc.enable()
        at = start - self.spent
        self.times.append(at)
        self.kernel_s.append(took)
        self.spent += took
        if self.budget_s is not None:
            self.used_s += (at - self.mark) * REF_KERNEL_S / took
            self.mark = at
            if self.used_s >= self.budget_s:
                self.budget_s = None
                raise OverBudget

    def watch(self, budget_s: float | None) -> None:
        """Raise ``OverBudget`` from the first sample after ``budget_s``
        seconds at the reference speed have passed from now; ``None`` stops
        watching.  Only an installed pacer samples, and so watches."""
        self.budget_s = budget_s
        self.used_s = 0.0
        self.mark = self.now()

    def burst(self, count: int = 20) -> None:
        """Samples taken back to back, before and after a timed stretch."""
        for _ in range(count):
            self.sample()

    def install(self) -> None:
        self.burst()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self.burst()

    def factor(self, start: float, end: float) -> float:
        """Scale for the clock interval ``start`` to ``end``: the reference
        kernel time over the median of the samples around it."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return REF_KERNEL_S / statistics.median(self.kernel_s[lo:hi])
