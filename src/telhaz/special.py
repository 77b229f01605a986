"""Scaled modified Bessel functions backing the closed-form densities.

``exp(-x) I0(x)`` and ``exp(-x) I1(x) / x`` are evaluated together, from their
ascending power series below a crossover argument, and from the exponentially
scaled large-argument expansion above it. They never overflow, and the density
code combines them with its own exponential prefactors.
"""

from __future__ import annotations

import math

import numpy as np

# Below the cutoff the ascending series converges in < 80 terms; above it the
# scaled asymptotic expansion reaches machine precision in < 20 terms.
_SERIES_CUTOFF = 30.0
_REL_STOP = 1e-16


def _series(x: np.ndarray) -> np.ndarray:
    # row r sums (x/2)^{2k} / (k! (k+r)!): I0 for r = 0, 2 I1(x)/x for r = 1;
    # term-ratio stopping. The whole array is tested only once the probe passes its
    # own test: the largest argument in row 0, which converges last (row 1's terms are
    # row 0's over k+1, its total's over at most k+1). The whole-array test implies
    # the probe's, so the loop stops at the same k either way
    flat = x.reshape(-1)
    total = np.ones((2, flat.size))
    if flat.size:
        probe = (0, int(np.argmax(flat)))
        q = 0.25 * flat * flat
        term = np.ones_like(total)
        k = np.arange(1.0, 400.0)[:, None, None]
        for divisor in k * (k + [[0.0], [1.0]]):
            term *= q
            term /= divisor
            total += term
            if term[probe] <= _REL_STOP * total[probe] and np.all(term <= _REL_STOP * total):
                break
    return total.reshape((2,) + x.shape)


def _asymptotic_scaled(x: np.ndarray) -> np.ndarray:
    # row r is e^{-x} I_r(x) for large x, its k-th factor (2k-1)^2 - 4r^2; terms
    # shrink monotonically while k << x. The probe, as in _series, is the smallest
    # argument in row 1, which converges last: its terms are larger, its total smaller
    flat = x.reshape(-1)
    total = np.ones((2, flat.size))
    if flat.size:
        probe = (1, int(np.argmin(flat)))
        term = np.ones_like(total)
        odd = np.arange(1.0, 59.0, 2.0)[:, None, None]
        for k, factor in enumerate(odd * odd - [[0.0], [4.0]], start=1):
            term *= factor
            term /= 8.0 * k * flat
            total += term
            if abs(term[probe]) <= _REL_STOP * abs(total[probe]) and np.all(
                np.abs(term) <= _REL_STOP * np.abs(total)
            ):
                break
    return (total / np.sqrt(2.0 * math.pi * flat)).reshape((2,) + x.shape)


def scaled_bessel(z):
    """``(exp(-z) I0(z), exp(-z) I1(z) / z)``, shaped like ``z``; the second is 1/2 at 0.

    The density needs both at one argument: the time derivative of I0 is I1 over a
    vanishing square root, and the series for I1(z)/z removes that 0/0. ``z`` must
    be finite and >= 0; it is not checked, as its one caller builds it so.

    A value depends only on its own argument, bit for bit: each regime sums both
    orders in one loop, run until the slowest argument's slower order stops, but
    the first term past an argument's own stop, in either order, is at most
    ~1.2e-17 (series) or ~2.2e-17 (asymptotic) of its total, under 2^-54, so it
    and every smaller one after it round away. A caller may therefore split its
    arguments into blocks.
    """
    arr = np.asarray(z, dtype=float)
    small = arr <= _SERIES_CUTOFF
    a = arr[small]
    i0e, i1e_over_z = np.empty_like(arr), np.empty_like(arr)
    # 0.5 (exp(-a) S1) is (0.5 exp(-a)) S1 bit for bit: exp(-a) >= exp(-30) is normal
    i0e[small], i1e_over_z[small] = _series(a) * np.exp(-a) * [[1.0], [0.5]]
    a = arr[~small]
    i0e[~small], i1e_over_z[~small] = _asymptotic_scaled(a)
    i1e_over_z[~small] /= a
    return i0e, i1e_over_z
