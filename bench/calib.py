"""Reference-speed clock: wall time rescaled by the machine's speed of the moment.

On a small shared machine the speed of one core changes by up to about 1.8x
within seconds, as other tenants come and go, so raw wall times of the same
work spread by 15-25% from run to run.  This module times a fixed chunk of
work (which never changes and does not touch clocktree) next to the measured
work, and converts the measured time into reference seconds: the time the
work would take on a machine where one chunk takes the chunk's reference
time.  Work and chunk slow down together, so the ratio holds still while the
raw time moves.

`RefClock.measure` samples the chunk on SIGALRM while the work runs, so
speed changes during a long call are followed; the time spent in the
samples is excluded from the work's time.  Importing this module imports
only the standard library, so it can time the import of numpy itself.
"""
from __future__ import annotations

import math
import signal
from time import perf_counter


def bytecode_chunk() -> float:
    """Float math in bytecode only; usable before numpy is imported."""
    acc = 0.0
    for i in range(1500):
        acc += math.sin(i) * math.cos(i) + (i % 7) * 0.5
    return acc


def numpy_chunk() -> float:
    """Bytecode, float math, small numpy reductions and a 5x5 matrix-vector
    step: the kinds of work the workloads do."""
    import numpy as np

    v = np.arange(5.0)
    m = np.full((5, 5), 0.2)
    p = np.full(5, 0.2)
    acc = 0.0
    for i in range(300):
        x = v * float(i % 7)
        acc += float(np.abs(x - 1.0).max()) + math.sin(i) * math.cos(i)
        p = np.power(m @ p, 2)
        p /= p.sum()
    return acc


# chunk -> its time on the reference machine, about its time here
REFERENCE_S = {bytecode_chunk: 4e-4, numpy_chunk: 2e-3}


def chunk_seconds(chunk) -> float:
    """Median wall time of three chunks, the speed of the moment."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        chunk()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def to_reference(seconds: float, chunk, chunk_s: float) -> float:
    """`seconds` of work done while one `chunk` took `chunk_s`, in reference seconds."""
    return seconds * REFERENCE_S[chunk] / chunk_s


class RefClock:
    """Times one call in wall seconds and in reference seconds."""

    def __init__(self, chunk, period_s: float) -> None:
        self.chunk = chunk
        self.period_s = period_s
        self.first_chunk_s = 0.0
        self._marks: list[tuple[float, float]] = []

    def _sample(self, *_args) -> None:
        t0 = perf_counter()
        self.chunk()
        self._marks.append((t0, perf_counter()))

    def measure(self, fn, *args):
        """(result, wall seconds, reference seconds) of fn(*args)."""
        self._marks = []
        self.first_chunk_s = first = chunk_seconds(self.chunk)
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            stop = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)
        last = chunk_seconds(self.chunk)
        # A sample taken after the work returned belongs to no interval.
        marks = [(t0, t1) for t0, t1 in self._marks if t1 <= stop]
        wall = ref = 0.0
        t_prev, c_prev = start, first
        for t0, t1 in marks + [(stop, stop + last)]:
            c = t1 - t0
            work = t0 - t_prev
            wall += work
            ref += to_reference(work, self.chunk, 0.5 * (c_prev + c))
            t_prev, c_prev = t1, c
        return result, wall, ref
