"""The benchmark's clock: CPU time, scaled to a reference host speed.

The program is CPU-bound, so every time is CPU time (``clock``).  On the
shared 2-vCPU host the benchmark was written on, CPU time alone still
varies: the host's speed changes by up to 1.4x over seconds to minutes,
and a whole run can land in a fast or a slow stretch, which made the
run-to-run spread of the timed metrics reach 0.35 of the median.  So a
fixed pure-Python loop (``calibration``), which the program's code cannot
change, is timed before and after every request and, from a ``Sampler``,
every ``SAMPLE_EVERY_S`` while a long request runs.  The request's CPU
time, less the loops run inside it, is scaled by ``REFERENCE_S`` over the
loop's mean time (``scaled``).  The result reads in seconds at the speed
where the loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import resource
import signal
import time

CALIBRATION_LOOPS = 40_000
# Median CPU time of ``calibration`` on the host the benchmark was written on.
REFERENCE_S = 0.0033
SAMPLE_EVERY_S = 0.25


def clock() -> float:
    """CPU seconds of this process, all its threads, plus those of the
    child processes it has waited for.

    Counting every thread and every reaped child means work moved off the
    main thread is still paid for.  Work that is waited on but not counted
    here (a child never reaped, I/O) shows as wall time far above CPU
    time, which run.py checks.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibration() -> float:
    """CPU seconds of a fixed integer loop: the host's current speed."""
    start = time.process_time()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.process_time() - start


def scaled(seconds: float, loops: list[float]) -> float:
    """``seconds`` of CPU time at the reference speed, given the times of
    the calibration loops run around and during them."""
    return seconds * REFERENCE_S * len(loops) / sum(loops)


class Sampler:
    """Times ``calibration`` every SAMPLE_EVERY_S of wall time, from a
    SIGALRM handler, which runs between two bytecodes of whatever the main
    thread is doing.  ``loops`` collects the times.

    A wall-clock timer, because arming a CPU-time timer (ITIMER_PROF) makes
    Linux read the process's CPU clock from its tick-sampled total, in
    steps of 4 ms, which no longer times a 4 ms loop.
    """

    def __init__(self):
        self.loops: list[float] = []

    def _sample(self, signum, frame):
        self.loops.append(calibration())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
