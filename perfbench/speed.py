"""Job times at a fixed reference speed, so the machine's drift cancels.

On the shared VM the baseline was taken on, the speed of each vCPU swings by
up to 1.7x within a quarter of a second, and the same pure-Python loop reads
0.037 to 0.066 s from one second to the next.  Raw wall times of one run
therefore say more about the neighbours than about the program.

``SpeedProbe`` samples the speed of the worker's own CPU while the jobs run:
a timer signal every ``INTERVAL_S`` runs a fixed loop (``probe``) and records
how long it took.  A job's time at the reference speed is its wall time, less
the time the probes took, times ``REFERENCE_PROBE_S`` over the mean probe
time around the job.

The loop does small ``Fraction`` arithmetic, the kind of work wlmpnn's exact
scalars do.  In trials on the baseline machine it tracked the jobs' slow and
fast spells better than a plain integer loop: cold chunks of synth spread
0.03 around their median instead of 0.06, and 0.04 with a big-number
``Fraction`` loop.  It uses only the interpreter and the standard library, so
a change to wlmpnn cannot move it: a program that does twice the work reads
twice the time.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01
PROBE_LOOP = 16
# probe() time at the reference speed: about its median on the baseline
# machine, so reference seconds read close to wall seconds there
REFERENCE_PROBE_S = 95e-6
# a window with fewer probes is widened to the nearest MIN_PROBES
MIN_PROBES = 8
# probes slower than this many times the window's median were interrupted
OUTLIER = 3.0


def probe() -> Fraction:
    total = Fraction(0)
    for k in range(1, PROBE_LOOP + 1):
        total += Fraction(1, k) * Fraction(k + 1, 3)
    return total


class SpeedProbe:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent in the signal handler so far

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.times.append(start)
        self.durations.append(end - start)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the speed measured in [start, end]; call after stop()."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_PROBES:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - MIN_PROBES // 2, len(self.times) - MIN_PROBES))
            hi = min(len(self.times), lo + MIN_PROBES)
        window = self.durations[lo:hi]
        limit = OUTLIER * statistics.median(window)
        return REFERENCE_PROBE_S / statistics.fmean(d for d in window if d <= limit)
