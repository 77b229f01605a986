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


def _series(x: np.ndarray, order: int) -> np.ndarray:
    # sum_k (x/2)^{2k} / (k! (k+order)!): I0 for order 0, 2 I1(x)/x for order 1;
    # term-ratio stopping. The whole array is tested only once the largest
    # argument, which converges last, passes its own test; the whole-array
    # test implies that one, so the loop stops at the same k either way
    if x.size == 0:
        return x.copy()
    probe = int(np.argmax(x))
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 400):
        term *= q
        term /= k * (k + order)
        total += term
        if term.flat[probe] <= _REL_STOP * total.flat[probe] and np.all(
            term <= _REL_STOP * total
        ):
            break
    return total


def _asymptotic_scaled(x: np.ndarray, order: int) -> np.ndarray:
    # e^{-x} I_order(x) for large x; terms shrink monotonically while k << x,
    # slowest at the smallest argument, which the stop test probes as _series does
    if x.size == 0:
        return x.copy()
    probe = int(np.argmin(x))
    mu = 4.0 * order * order
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 30):
        term *= (2 * k - 1) ** 2 - mu
        term /= 8.0 * k * x
        total += term
        if abs(term.flat[probe]) <= _REL_STOP * abs(total.flat[probe]) and np.all(
            np.abs(term) <= _REL_STOP * np.abs(total)
        ):
            break
    return total / np.sqrt(2.0 * math.pi * x)


def scaled_bessel(z):
    """``(exp(-z) I0(z), exp(-z) I1(z) / z)``, shaped like ``z``; the second is 1/2 at 0.

    The density needs both at one argument: the time derivative of I0 is I1 over a
    vanishing square root, and the series for I1(z)/z removes that 0/0. ``z`` must
    be finite and >= 0; it is not checked, as its one caller builds it so.

    A value depends only on its own argument, bit for bit: the loops run until
    the slowest argument stops, but the first term past an argument's own stop
    is at most ~1.2e-17 (series) or ~2.2e-17 (asymptotic) of its total, under
    2^-54, so it and every smaller one after it round away. A caller may
    therefore split its arguments into blocks.
    """
    arr = np.asarray(z, dtype=float)
    small = arr <= _SERIES_CUTOFF
    a = arr[small]
    # both series before the outputs and one exp(-a), halved in place for
    # (0.5 exp(-a)) S1: fewer full-size arrays live at once than two separate calls held
    s0, s1 = _series(a, 0), _series(a, 1)
    i0e, i1e_over_z = np.empty_like(arr), np.empty_like(arr)
    scale = np.exp(-a)
    i0e[small] = scale * s0
    scale *= 0.5
    i1e_over_z[small] = scale * s1
    a = arr[~small]
    i0e[~small] = _asymptotic_scaled(a, 0)
    i1e_over_z[~small] = _asymptotic_scaled(a, 1) / a
    return i0e, i1e_over_z
