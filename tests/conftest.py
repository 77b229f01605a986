"""Shared oracle helpers for the test suite.

The Monte Carlo sampler here is deliberately written against the library's
vectorized one: it walks exponential inter-arrival gaps path by path, so the
two constructions can cross-validate each other. The path oracle keeps every
switch time of one trajectory, and its integral is the same kind of walk over
them. The kernel estimates are plain per-observation sums, the reference for
any faster evaluator of the library's vectorized ``kde``; ``matrix_kde`` is
the one-matrix evaluator that ``kde`` must reproduce bit for bit. The Bessel
series keep their allocating loops with a whole-array stop test, which the
library's in-place loops must reproduce bit for bit, and the W(t) CDF keeps
its one-term-at-a-time Poisson mixture over switch counts, in double and in
40-digit precision. The path tables keep their row generator written through
``csv.writer``, the reference for the CLI's column-wise path writer, and the
band keeps its one-time-point formulas, the reference for the band over an
array of times.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np
from scipy.special import betainc

_REL_STOP = 1e-16


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


def oracle_path(params, horizon: float, seed: int) -> tuple[int, list[float]]:
    """Starting sign and every switch time in (0, horizon) of one trajectory (oracle).

    The library's ``sample_path`` stream, kept as an event list: the sign coin,
    then exponential gaps in blocks sized for the whole expected switch count.
    """
    rng = np.random.default_rng(seed)
    sign = 1 if rng.random() < 0.5 else -1
    expected = params.lam * horizon
    block = max(8, int(expected + 6.0 * math.sqrt(expected) + 8.0))
    events: list[float] = []
    start = 0.0
    while True:
        arrivals = start + np.cumsum(rng.exponential(1.0 / params.lam, size=block))
        inside = arrivals[arrivals < horizon]
        events.extend(inside.tolist())
        if inside.size < arrivals.size:
            return sign, events
        start = float(arrivals[-1])


def walk_integral(sign: int, events, params, times) -> np.ndarray:
    """W at the nondecreasing ``times``, walking the switch times one segment at a time (oracle)."""
    out = []
    total = 0.0
    previous = 0.0
    events = iter(events)
    event = next(events, math.inf)
    for t in times:
        while event < t:
            total += sign * (event - previous)
            previous = event
            sign = -sign
            event = next(events, math.inf)
        out.append(params.c * (total + sign * (t - previous)))
    return np.array(out)


def csv_path_rows(name: str, values, grid, paths: int, seed: int):
    """Header, then the rows (pid, t, value) of ``paths`` sample paths, one zip per path (oracle)."""
    yield "path_id", "t", name
    times = grid.tolist()
    for pid in range(paths):
        yield from zip(itertools.repeat(pid), times, values(grid, seed + pid).tolist())


def csv_path_table(name: str, values, grid, paths: int, seed: int) -> str:
    """:func:`csv_path_rows` through ``csv.writer``, with the CLI's line terminator (oracle)."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(csv_path_rows(name, values, grid, paths, seed))
    return out.getvalue()


def math_band(model, t: float) -> tuple[float, float, float]:
    """a(t), b(t) and the width at one time, one ``math`` call per term (oracle)."""
    cum = model.hazard.cumulative(t)
    ct = model.noise.c * t
    return (-math.expm1(ct - cum), -math.expm1(-(ct + cum)),
            math.exp(ct - cum) - math.exp(-(ct + cum)))


def series_oracle(x: np.ndarray, order: int) -> np.ndarray:
    """Ascending Bessel series, a fresh array per step, stop tested on the whole array (oracle)."""
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 400):
        term = term * q / (k * (k + order))
        total = total + term
        if np.all(term <= _REL_STOP * total):
            break
    return total


def asymptotic_oracle(x: np.ndarray, order: int) -> np.ndarray:
    """Scaled large-argument Bessel expansion, written like :func:`series_oracle` (oracle)."""
    mu = 4.0 * order * order
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 30):
        term = term * ((2 * k - 1) ** 2 - mu) / (8.0 * k * x)
        total = total + term
        if np.all(np.abs(term) <= _REL_STOP * np.abs(total)):
            break
    return total / np.sqrt(2.0 * math.pi * x)


def loop_w_cdf(params, t: float, w, counts, weights) -> np.ndarray:
    """P{W(t) <= w} from the Poisson ``counts`` and ``weights``, one term at a time (oracle)."""
    arr = np.asarray(w, dtype=float)
    ct = params.c * t
    y = np.clip(0.5 * (arr / ct + 1.0), 0.0, 1.0)
    mix = np.zeros_like(arr)
    for n, p in zip(counts.tolist(), weights.tolist()):
        a, b = (n + 2) // 2, (n + 1) // 2
        mix += p * (0.5 * (betainc(a, b, y) + betainc(b, a, y)) if n else 0.5)
    return np.where(arr >= ct, 1.0, np.where(arr < -ct, 0.0, np.minimum(mix, 1.0)))


def mp_w_cdf(params, t: float, w: float) -> float:
    """P{W(t) <= w} at 40 digits, summing [I_y(a,b) + I_y(b,a)]/2 over every N (oracle).

    The Poisson weights run from N = 0 to mean + 20 sqrt(mean) + 60, past
    which less than 1e-40 of the mass lies; the caller skips without mpmath.
    """
    import mpmath

    with mpmath.workdps(40):
        mean = mpmath.mpf(params.lam) * t
        y = (mpmath.mpf(w) / (mpmath.mpf(params.c) * t) + 1) / 2
        weight = mpmath.exp(-mean)
        total = weight / 2  # N = 0: the lower atom
        for n in range(1, int(mean + 20 * mpmath.sqrt(mean) + 60)):
            weight *= mean / n
            a, b = (n + 2) // 2, (n + 1) // 2
            pair = mpmath.betainc(a, b, 0, y, regularized=True) + mpmath.betainc(
                b, a, 0, y, regularized=True
            )
            total += weight * pair / 2
        return float(total)


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


def full_density(u):
    """Kernel density with the quadratic taken everywhere, then clipped at 0 (oracle)."""
    root5 = math.sqrt(5.0)
    u = np.asarray(u, dtype=float)
    return np.maximum(3.0 / (4.0 * root5) * (1.0 - u * u / 5.0), 0.0)


def where_cdf(u):
    """Kernel CDF with the cubic taken everywhere, then 0/1 chosen outside the support (oracle)."""
    root5 = math.sqrt(5.0)
    u = np.asarray(u, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf at u = +-inf; np.where discards it
        core = 0.5 + 3.0 / (4.0 * root5) * (u - u**3 / 15.0)
    return np.where(u < -root5, 0.0, np.where(u > root5, 1.0, core))


def matrix_kde(values, h: float, t):
    """f_hat and F_hat from the whole (m x n) matrix u = (t - T_i)/h at once (oracle)."""
    ta = np.asarray(t, dtype=float)
    u = (ta[..., None] - np.asarray(values, dtype=float)) / h
    f = full_density(u).mean(axis=-1) / h
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
