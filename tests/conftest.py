"""Shared oracle helpers for the test suite.

The Monte Carlo sampler here is deliberately written against the library's
vectorized one: it walks exponential inter-arrival gaps path by path, so the
two constructions can cross-validate each other. The path integral is the
same kind of walk, over one realized path's switch times. The kernel
estimates are plain per-observation sums, the reference for any faster
evaluator of the library's vectorized ``kde``; ``matrix_kde`` is the
one-matrix evaluator that ``kde`` must reproduce bit for bit.
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


def direct_kde(values, h: float, t: float) -> tuple[float, float]:
    """f_hat and F_hat at ``t`` as per-observation Epanechnikov sums (oracle)."""
    root5 = math.sqrt(5.0)
    scale = 3.0 / (4.0 * root5)
    k_terms = []
    K_terms = []
    for value in values:
        u = (t - value) / h
        if u >= root5:
            K_terms.append(1.0)
        elif u > -root5:
            k_terms.append(scale * (1.0 - u * u / 5.0))
            K_terms.append(0.5 + scale * (u - u**3 / 15.0))
    n = len(values)
    return math.fsum(k_terms) / (n * h), math.fsum(K_terms) / n


def where_cdf(u):
    """Kernel CDF with the cubic taken everywhere, then 0/1 chosen outside the support (oracle)."""
    root5 = math.sqrt(5.0)
    u = np.asarray(u, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf at u = +-inf; np.where discards it
        core = 0.5 + 3.0 / (4.0 * root5) * (u - u**3 / 15.0)
    return np.where(u < -root5, 0.0, np.where(u > root5, 1.0, core))


def matrix_kde(values, h: float, t):
    """f_hat and F_hat from the whole (m x n) matrix u = (t - T_i)/h at once (oracle)."""
    root5 = math.sqrt(5.0)
    ta = np.asarray(t, dtype=float)
    u = (ta[..., None] - np.asarray(values, dtype=float)) / h
    f = np.maximum(3.0 / (4.0 * root5) * (1.0 - u * u / 5.0), 0.0).mean(axis=-1) / h
    F = where_cdf(u).mean(axis=-1)
    return (float(f), float(F)) if ta.ndim == 0 else (f, F)


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
