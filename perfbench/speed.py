"""Speed normalisation of wall times against a fixed reference kernel.

On a host shared with other tenants the same op can take 1.6x longer for
minutes at a time: both cores slow down together, and CPU time tracks wall
time, so the code runs slower rather than waits.  Raw wall times of two runs
then differ by more than any useful regression bound.  The benchmark
therefore times a fixed kernel of its own, which no change to ``src/`` can
touch, next to the work it measures, and reports every time scaled to the
speed at which that kernel takes ``REFERENCE_MS``:

    normalised = raw * REFERENCE_MS / (kernel time measured next to it)

A change that slows the package still reads slower; a slow phase of the host
does not.  Raw times are printed beside the metrics as well.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Close to the kernel's wall time on the machine in baseline.json when the
# host is not slowed; it only sets the scale of every reported time.
REFERENCE_MS = 5.0
_FLAGS = np.random.default_rng(0).random(100_000) < 0.3
_STEP = np.array([1.0, 2.0, 3.0])


def reference_ms() -> float:
    """Wall time of the reference kernel, in ms.

    The kernel mixes what the workloads spend their time on: an interpreted
    float loop, numpy calls on tiny arrays, and boolean reductions over a
    1e5-element array.
    """
    start = time.perf_counter()
    x = 0.0
    for i in range(20_000):
        x += (i % 7) * 0.5
    state = np.zeros(3)
    for _ in range(2_000):
        state = state + _STEP * 0.5
    for _ in range(20):
        np.count_nonzero(_FLAGS & _FLAGS)
    return (time.perf_counter() - start) * 1e3


class SpeedGauge:
    """Speed factors for wall times, from the kernel run at most every ``interval_s``.

    ``tick`` before each piece of timed work returns the index of the kernel
    run that precedes it; once the work is done and ``finish`` has run the
    kernel once more, ``factor(index)`` uses the median of the kernel runs
    just before, around and just after the work, so a change of host speed
    is seen on both sides and one noisy kernel run does not move the factor.
    """

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.samples: list = []  # every kernel time, ms
        self._since = float("inf")

    def tick(self) -> int:
        if self._since >= self.interval_s:
            self.samples.append(reference_ms())
            self._since = 0.0
        return len(self.samples) - 1

    def advance(self, elapsed_s: float) -> None:
        self._since += elapsed_s

    def finish(self) -> None:
        self.samples.append(reference_ms())
        self._since = 0.0

    def factor(self, index: int) -> float:
        window = self.samples[max(index - 1, 0):index + 2]
        return REFERENCE_MS / statistics.median(window)
