"""A fixed computation that does not call telhaz, timed between operations.

On a shared host the CPU's speed drifts by tens of percent over tens of
seconds, and this computation slows down with it. An operation's time over the
mean of the reference times just before and just after it cancels most of that
drift; ``wall_rel`` is the sum of these ratios over a pass.
"""

from __future__ import annotations

import time

import numpy as np

LOOP = 1_000_000
ARRAY = np.random.default_rng(0).random(1 << 20)


def reference_s() -> float:
    """~0.1 s of interpreter loop, ``exp`` and ``sort``: the host's speed now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    np.exp(ARRAY).sum()
    np.sort(ARRAY)
    return time.perf_counter() - start


class Clock:
    """Sums operation times, in seconds and relative to the reference around each."""

    def __init__(self):
        self.wall_s = 0.0
        self.wall_rel = 0.0
        self._before = reference_s()

    def add(self, seconds: float) -> None:
        after = reference_s()
        self.wall_s += seconds
        self.wall_rel += seconds / (0.5 * (self._before + after))
        self._before = after
