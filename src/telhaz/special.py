"""Scaled modified Bessel functions backing the closed-form densities.

``exp(-x) I0(x)`` and ``exp(-x) I1(x) / x`` are evaluated from their ascending
power series below a crossover argument, and from the exponentially scaled
large-argument expansion above it. They never overflow, and the density code
combines them with its own exponential prefactors.
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


def _dispatch(x, small_fn, large_fn):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("argument must be finite and >= 0")
    # a scalar is a 0-d array and goes through the same masks
    out = np.empty_like(arr)
    small = arr <= _SERIES_CUTOFF
    out[small] = small_fn(arr[small])
    out[~small] = large_fn(arr[~small])
    return float(out) if arr.ndim == 0 else out


def bessel_i0e(x):
    """Exponentially scaled ``exp(-x) * I0(x)``; never overflows."""
    return _dispatch(x, lambda a: np.exp(-a) * _series(a, 0), lambda a: _asymptotic_scaled(a, 0))


def bessel_i1e_over_x(x):
    """``exp(-x) * I1(x) / x`` with its finite limit 1/2 at x = 0.

    The ratio appears wherever the chain rule turns a time derivative of I0
    into I1 divided by a vanishing square root; evaluating the series for
    I1(x)/x directly removes the 0/0 at the support boundary.
    """
    return _dispatch(
        x,
        lambda a: 0.5 * np.exp(-a) * _series(a, 1),
        lambda a: _asymptotic_scaled(a, 1) / a,
    )
