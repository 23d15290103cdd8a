"""Machine-speed sampling, so that timings follow the program and not the host.

On a shared host the speed of a core swings by up to 2x within seconds and
from minute to minute, with no steal time to show for it: the host slows the
core rather than descheduling it.  Wall time alone then measures the
neighbours.  So the end-to-end times are CPU time of the benchmark's thread
(which leaves out the moments another process holds the core), put on the
scale of a fixed reference kernel: the benchmark's own ``oracle`` arithmetic
(dict polynomials, Fractions and an integer Bareiss determinant, pure Python
like gordian), which runs every INTERVAL_S from a SIGALRM timer while the
timed loop runs.  An operation's CPU time, less any kernel run that
interrupted it, is multiplied by REF_S over the mean kernel time within
WINDOW_S of the operation (the slowest and fastest tenth of those left out):
it is reported in seconds of a machine on which the kernel takes REF_S.  The
kernel does not change with the program, so a faster program still reads
faster.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter, thread_time

import oracle

INTERVAL_S = 0.02
WINDOW_S = 0.1
# about the kernel's time on the 2-core machine the benchmark was written
# on; only the scale of the reported times depends on it
REF_S = 0.0005

_P = {2: -2, 1: -3, 0: 11, -1: -3, -2: -2}
_M = [[(3 * i + 5 * j) % 7 - 3 + (i == j) * 9 for j in range(5)] for i in range(5)]


def kernel():
    """About half a millisecond of fixed pure-Python arithmetic."""
    for _ in range(5):
        q = oracle.mul(_P, oracle.bar(_P))
        oracle.mul(q, _P)
        oracle.evaluate(q, 3)
        oracle.det(_M)


def timed_kernel():
    """(wall clock at the start, CPU seconds taken) of one kernel run."""
    start, cpu = perf_counter(), thread_time()
    kernel()
    return start, thread_time() - cpu


def trimmed_mean(values):
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


class Sampler:
    """Runs the kernel on a timer between ``start`` and ``stop``.

    ``spent`` is the kernel's CPU time so far, so that a caller can take the
    kernel's share out of what it timed.
    """

    def __init__(self):
        self.starts, self.durations = [], []
        self.spent = 0.0

    def _sample(self, *_):
        start, seconds = timed_kernel()
        self.starts.append(start)
        self.durations.append(seconds)
        self.spent += seconds

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scale(self, begin, end):
        """REF_S over the kernel's time within WINDOW_S of the wall-clock
        interval [begin, end]; the nearest sample on each side when none
        falls there."""
        i = bisect.bisect_left(self.starts, begin - WINDOW_S)
        j = bisect.bisect_right(self.starts, end + WINDOW_S)
        if i == j:
            i, j = max(0, i - 1), i + 1
        return REF_S / trimmed_mean(self.durations[i:j])
