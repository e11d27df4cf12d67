"""Machine speed, measured with a fixed pure-Python loop.

On the shared two-core machine this benchmark was built on, the speed of a
core drifts by 20-40 % over minutes while CPU time stays equal to wall
time: other tenants slow the core down, the scheduler does not take it
away. That drift, not the seed, set the spread of raw wall times across
runs (an interquartile range of 16-36 % of the median over ten runs).

So the benchmark's time metrics are rescaled to a reference speed:

    reference seconds = wall seconds * REFERENCE_S / loop seconds

where the loop time is the median of the loop timed *during* the measured
work: an interval timer interrupts the work every ``SAMPLE_EVERY_S`` and
times one pass of the loop (about 1 % of the time, which is subtracted
from the wall time). A change that makes the package slower makes its
reference seconds larger; only the loop, which is the benchmark's own
code, defines the scale. A call that ends before the first sample is
scaled by the loop passes taken just before and just after it.

The scale holds only while the package runs on one thread of one process,
so that the loop sees the core the package sees. ``Sampler`` also records
the process's CPU time and its largest thread count. When a second thread
was seen, or the CPU time departs from the wall time by more than
``MAX_CPU_WALL_GAP`` (a child process, or waiting), the call is not
rescaled and its raw wall seconds are reported instead.
"""

from __future__ import annotations

import os
import resource
import signal
import statistics
import threading
import time

REFERENCE_S = 0.002  # the loop's time at the reference speed
SAMPLE_EVERY_S = 0.25
MAX_CPU_WALL_GAP = 0.1
_EDGE_PASSES = 3
_LOOP_N = 20_000


def loop_s() -> float:
    """Time one pass of the fixed loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_LOOP_N):
        acc += i * i % 7
    return time.perf_counter() - t0


def median_loop_s(passes: int = 15) -> float:
    return statistics.median(loop_s() for _ in range(passes))


def rescale(seconds: float, loop_seconds: float) -> float:
    return seconds * REFERENCE_S / loop_seconds


class Sampler:
    """Times the loop every ``SAMPLE_EVERY_S`` of wall time while active,
    and a few passes on entry and exit.

    Uses SIGALRM, so only one may be active, in the main thread.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.edge_samples: list[float] = []
        self.cpu_s = 0.0
        self.span_s = 0.0
        self.max_threads = 1
        self._previous = None

    def __enter__(self):
        self.edge_samples += (loop_s() for _ in range(_EDGE_PASSES))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._cpu0, self._t0 = _cpu_s(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.cpu_s = _cpu_s() - self._cpu0
        self.span_s = time.perf_counter() - self._t0
        self.max_threads = max(self.max_threads, _threads())
        signal.signal(signal.SIGALRM, self._previous)
        self.edge_samples += (loop_s() for _ in range(_EDGE_PASSES))
        return False

    def _sample(self, signum, frame):
        self.samples.append(loop_s())
        self.max_threads = max(self.max_threads, _threads())

    def loop_seconds(self) -> float:
        """Median loop time during the work, or around it if it was too short."""
        return statistics.median(self.samples or self.edge_samples)

    def rescalable(self) -> bool:
        """Whether the span ran on one thread and its CPU time matched its wall time."""
        return (self.max_threads == 1
                and abs(self.cpu_s / self.span_s - 1) <= MAX_CPU_WALL_GAP)

    def reference_seconds(self, wall: float) -> float:
        """``wall`` less the sampling time, at the reference speed when the
        call ran on one thread of one process, else as measured."""
        work = wall - sum(self.samples)
        if not self.rescalable():
            return work
        return rescale(work, self.loop_seconds())


def _cpu_s() -> float:
    """CPU seconds of this process, all its threads, and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _threads() -> int:
    """Threads of this process, native ones included where the OS tells."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()
