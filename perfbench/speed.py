"""Reference seconds: times corrected for the drifting speed of a shared host.

On the 2-core virtual machine this benchmark was sized on, the host's speed
switches between a few levels every few seconds: within one run, a fixed
pure-Python kernel took anywhere from 19 to 36 ms.  Any wall time of fixed
work then moves by 10-20% from run to run, more than a regression bound can
tolerate.  So the benchmark samples a fixed kernel, which uses no pcsplab
code, densely during every measurement, and reports

    reference seconds = measured seconds * NOMINAL_S / mean kernel time

that is, the time the work would take on a machine where the kernel takes
NOMINAL_S.  A faster pcsplab lowers it; a busier host does not.  Set-up
times get the same treatment against a reference process start.
"""

from __future__ import annotations

import signal
import statistics
import time

KERNEL_ITERATIONS = 20_000
NOMINAL_S = 0.005  # about the kernel's time on the reference machine
PERIOD_S = 0.2  # sampling period during a pass; the kernel adds about 2.5%


def kernel():
    """Seconds one run of the fixed kernel (dict and integer work) takes."""
    table = dict.fromkeys(range(1024), 0)
    acc = 0
    start = time.perf_counter()
    for i in range(KERNEL_ITERATIONS):
        table[i & 1023] = i
        acc += table[(i * 7) & 1023] % 5
    return time.perf_counter() - start


# Set-up is process start-up, not computation, and the kernel above does not
# track it.  Its reference is a bare interpreter start that imports a fixed
# set of standard modules, timed just before and just after each set-up.
START_COMMAND = (
    "-c",
    "import argparse, dataclasses, fractions, itertools, json, random, re, statistics; print('ready', flush=True)",
)
NOMINAL_START_S = 0.1  # about the reference start's time on the reference machine


def reference_seconds(seconds, samples, nominal=NOMINAL_S):
    return seconds * nominal / statistics.mean(samples)


class Speedometer:
    """Runs the kernel from a SIGALRM handler every PERIOD_S while active.

    The handler runs between bytecodes of whatever the main thread is
    executing, so callers subtract `kernel_s` from the intervals they time.
    """

    def __init__(self):
        self.samples = []
        self.kernel_s = 0.0

    def _tick(self, signum, frame):
        elapsed = kernel()
        self.samples.append(elapsed)
        self.kernel_s += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one period
            self.samples.append(kernel())
