"""Shared oracle helpers for the test suite.

The Monte Carlo sampler here is deliberately written against the library's
vectorized one: it walks exponential inter-arrival gaps path by path, so the
two constructions can cross-validate each other. The path integral is the
same kind of walk, over one realized path's switch times.
"""

from __future__ import annotations

import math

import numpy as np


def brute_force_w(c: float, lam: float, t: float, n_paths: int, seed: int) -> np.ndarray:
    """W(t) samples via per-path exponential gap walking (oracle sampler)."""
    rng = np.random.default_rng(seed)
    out = np.empty(n_paths)
    for i in range(n_paths):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        clock = 0.0
        total = 0.0
        while True:
            gap = rng.exponential(1.0 / lam)
            if clock + gap >= t:
                total += sign * (t - clock)
                break
            total += sign * gap
            clock += gap
            sign = -sign
        out[i] = c * total
    return out


def walk_integral(path, params, t: float) -> float:
    """W(t) along ``path`` by walking its switch times one segment at a time (oracle)."""
    if not 0.0 <= t <= path.horizon:
        raise ValueError(f"t must lie in [0, {path.horizon}], got {t!r}")
    sign = path.initial_sign
    total = 0.0
    previous = 0.0
    for event in path.event_times:
        if event >= t:
            break
        total += sign * (event - previous)
        previous = event
        sign = -sign
    total += sign * (t - previous)
    return params.c * total


def ks_distance(sorted_sample: np.ndarray, cdf_at_sample: np.ndarray) -> float:
    """Kolmogorov-Smirnov sup distance from the exact order-statistic formula."""
    n = sorted_sample.size
    i = np.arange(1, n + 1)
    return max(
        float(np.max(np.abs(i / n - cdf_at_sample))),
        float(np.max(np.abs((i - 1) / n - cdf_at_sample))),
    )


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic KS critical value c(alpha)/sqrt(n)."""
    coefficient = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return coefficient / math.sqrt(n)
