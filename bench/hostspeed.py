"""Host speed measured alongside each timed scene.

On a shared host the speed of one core drifts by a third or more between
minutes, which is wider than any regression bound the benchmark can set.
While a scene runs, SIGALRM fires every `INTERVAL_S` and times a fixed
kernel that uses none of the program's code; the scene's time is then scaled
to the speed at which that kernel takes `REFERENCE_S`. A change to the
program cannot move the kernel, so it moves the scaled time in full.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 1.25e-3  # fixed for good: changing it rescales every reported time
INTERVAL_S = 0.25
_POINTS = np.random.default_rng(1).random((64, 2))


def kernel() -> float:
    """Fixed mix of interpreted arithmetic, dict stores and small numpy calls."""
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(4000):
        table[i & 255] = acc
        acc += (i * 0.5) % 7.0
        if i % 128 == 0:
            acc += float(np.hypot(_POINTS[:, 0] - acc % 1.0, _POINTS[:, 1]).min())
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, kernel_times: list[float]) -> float:
    return seconds * REFERENCE_S / statistics.median(kernel_times)


class Sampler:
    """Times `kernel` on entry, on exit and every `INTERVAL_S` in between."""

    def __enter__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self):
        self.samples.append(time_kernel())

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._sample()
        self.spent += time.perf_counter() - t0

    def scale(self, seconds: float) -> float:
        """`seconds` measured inside the block, less sampling, at reference speed."""
        return at_reference_speed(seconds - self.spent, self.samples)
