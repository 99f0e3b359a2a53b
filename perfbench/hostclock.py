"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts
with the load of other tenants. Interpreter-bound code has been seen to
run 1.3 to 1.6 times slower for stretches of seconds to minutes, while
memory bandwidth stayed within about 10%. A slow stretch can outlast a
run, so medians within a run cannot remove it: ten runs of one workload
spread by up to a third of their median.

So during a timed run the worker times a fixed calibration kernel that
the program under test never runs. It does the two kinds of work the
program spends its time on: inserts and lookups in a dict keyed by
320-bit integers (the sparse state's map), and many numpy calls on tiny
arrays (the small-instance protocol code). Of the kernels tried, this
pair followed the slowdown of all four workloads most closely; a plain
integer loop or a bulk numpy pass followed it less well. The kernel
runs before an op once INTERVAL_S has passed since its last run, so it
costs at most about 7% of the run.

The host's slowdown at an op is the median of the kernel run before it
and the `WINDOW` runs on each side, over REFERENCE_S. Only the
`interpreter_share` of an op's time is taken to slow down with it; the
rest is bulk memory-bound work, which the slow stretches barely touch.
An op's latency is divided by share * slowdown + (1 - share). A scaled
time reads as it would on a host where one kernel run takes
REFERENCE_S. Raw wall-clock figures are printed beside the scaled ones.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import numpy as np

REFERENCE_S = 0.004  # about one kernel run on the 2-core host the benchmark was tuned on
KEYS = 6000  # dict part: about 1.9 ms
KEY_BITS = 320  # the width of a toy-mode CRS state
CALLS = 300  # numpy part: 2 calls each, about 1.9 ms
INTERVAL_S = 0.05
WINDOW = 5


class HostClock:
    """Times the calibration kernel and scales timings by it.
    `interpreter_share` is the share of the timed work that slows down as
    the kernel does."""

    def __init__(self, interpreter_share: float = 1.0):
        if not 0.0 <= interpreter_share <= 1.0:
            raise ValueError("interpreter_share must lie in [0, 1]")
        self.share = interpreter_share
        g = random.Random(0)
        self._keys = [g.getrandbits(KEY_BITS) for _ in range(KEYS)]
        self._small = np.zeros(8)
        self.samples: list[float] = []
        self._last = -math.inf

    def tick(self) -> float:
        """Run the kernel once; return its time in seconds."""
        t0 = time.perf_counter()
        amps = {}
        for k in self._keys:
            amps[k ^ 0xFFFF] = 0.5j
        found = 0
        for k in self._keys:
            found += (k ^ 0xFFFF) in amps
        for _ in range(CALLS):
            self._small.sum()
            np.argwhere(self._small)
        return time.perf_counter() - t0

    def before_op(self) -> int:
        """Run the kernel into `samples` if INTERVAL_S has passed since
        its last run; return the index of the sample that scales the
        coming op."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(self.tick())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def _factor(self, kernel_s: float) -> float:
        return 1.0 / (self.share * kernel_s / REFERENCE_S + 1.0 - self.share)

    def scale_now(self, runs: int) -> float:
        """Factor for a timing just taken, from the median of `runs`
        kernel runs made now (not kept in `samples`)."""
        return self._factor(statistics.median(self.tick() for _ in range(runs)))

    def scaled(self, timings: list[float], sample_index: list[int]) -> list[float]:
        """Scale timings[i] by the median of the kernel samples within
        WINDOW of samples[sample_index[i]]."""
        s = self.samples
        return [
            t * self._factor(statistics.median(s[max(0, j - WINDOW) : j + WINDOW + 1]))
            for t, j in zip(timings, sample_index, strict=True)
        ]
