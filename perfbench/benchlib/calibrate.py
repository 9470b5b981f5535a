"""Host-speed calibration.

On a shared host the same op can take twice as long from one second to
the next, and a slowdown persists for seconds, so averaging within a
run cannot remove it.  A background thread therefore times a fixed
kernel every 50 ms, and each op's host time is divided by the mean
kernel time sampled while it ran.  The kernel has an interpreter part
(~1 ms of heap, dict and float work, like the event engine and the
channel code) and, for workloads whose ops are vectorized numpy, a
numpy part (~0.5 ms of in-place passes over a 512 KB array, like the
batch renderer and the population blocks).  On 12-36 repeats of one op,
calibrating cut the spread (interquartile range over median) from
14-18% to 3-4% for office and TCP ops; for batch blocks the interpreter
part alone over-corrected (9% against 7% uncalibrated) and both parts
gave 5%, while both parts over-corrected office ops.  Over 5 runs of
each workload, run-to-run spreads of ``sessions_per_s`` fell from
6-29% uncalibrated to 2-4%.

Calibrated times are in *reference seconds*: what the op would take on
a host where the kernel takes its reference time, about its time on a
quiet core of a 2-core development host.
"""

from __future__ import annotations

import bisect
import heapq
import math
import threading
import time
from typing import List

import numpy as np

#: reference times of the interpreter and numpy parts of the kernel
REFERENCE_S = 0.001
NUMPY_REFERENCE_S = 0.0005
PERIOD_S = 0.05
_LOOP = 1500
_ARRAY = 1 << 16
_PASSES = 6


def kernel_s(with_numpy: bool) -> float:
    """CPU seconds the calibration kernel takes now.

    CPU time of this thread, not wall time: when the op's own pool
    workers occupy every core, the kernel waits for a core, and wall
    time would count that wait as a slow host.
    """
    start = time.thread_time()
    heap: list = []
    table: dict = {}
    total = 0.0
    for i in range(_LOOP):
        heapq.heappush(heap, ((i * 7919) % _LOOP, i))
        table[i & 255] = table.get(i & 255, 0.0) + math.sqrt(i + 1.0)
        if len(heap) > 32:
            total += heapq.heappop(heap)[0]
    if not with_numpy:
        return time.thread_time() - start
    values = np.arange(_ARRAY, dtype=np.float64)
    for _ in range(_PASSES):
        np.multiply(values, 1.0001, out=values)
        np.add(values, 1.0, out=values)
        np.sqrt(values, out=values)
    return time.thread_time() - start


class SpeedSampler:
    """Times the kernel every ``PERIOD_S`` on a daemon thread."""

    def __init__(self, with_numpy: bool) -> None:
        self._with_numpy = with_numpy
        self._reference_s = REFERENCE_S + (NUMPY_REFERENCE_S if with_numpy
                                           else 0.0)
        self._times: List[float] = []
        self._kernel: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="speed-sampler")

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            seconds = kernel_s(self._with_numpy)
            # Kernel first, then time: a reader that sees the time
            # always finds its kernel sample.
            self._kernel.append(seconds)
            self._times.append(time.perf_counter())

    def reference_seconds(self, start: float, end: float) -> float:
        """Host interval ``[start, end]`` (``perf_counter`` times) in
        reference seconds, from the kernel samples taken within it, or
        the nearest ones when it holds fewer than three."""
        times = self._times[:]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        if hi - lo < 3:
            lo, hi = max(0, lo - 2), min(len(times), hi + 2)
        window = self._kernel[lo:hi]
        if not window:
            return end - start
        return (end - start) * self._reference_s / (sum(window)
                                                    / len(window))
