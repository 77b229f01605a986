"""Scalar special functions backing the closed-form densities.

The modified Bessel functions I0 and I1 are evaluated from their ascending
power series below a crossover argument, and from the exponentially scaled
large-argument expansion above it. The scaled variants (``bessel_i0e`` and
friends) never overflow and are what the density code combines with its own
exponential prefactors.
"""

from __future__ import annotations

import math

import numpy as np

# Below the cutoff the ascending series converges in < 80 terms; above it the
# scaled asymptotic expansion reaches machine precision in < 20 terms.
_SERIES_CUTOFF = 30.0
_REL_STOP = 1e-16


def _prepare(x):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("argument must be finite and >= 0")
    return arr, arr.ndim == 0


def _i0_series(x: np.ndarray) -> np.ndarray:
    # sum_k (x/2)^{2k} / (k!)^2, term-ratio stopping
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 400):
        term = term * q / (k * k)
        total = total + term
        if np.all(term <= _REL_STOP * total):
            break
    return total


def _i1_sum(x: np.ndarray) -> np.ndarray:
    # S(x) = sum_k (x/2)^{2k} / (k! (k+1)!), so I1 = (x/2) S and I1/x = S/2
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 400):
        term = term * q / (k * (k + 1))
        total = total + term
        if np.all(term <= _REL_STOP * total):
            break
    return total


def _asymptotic_scaled(x: np.ndarray, order: int) -> np.ndarray:
    # e^{-x} I_order(x) for large x; terms shrink monotonically while k << x
    mu = 4.0 * order * order
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 30):
        term = term * ((2 * k - 1) ** 2 - mu) / (8.0 * k * x)
        total = total + term
        if np.all(np.abs(term) <= _REL_STOP * np.abs(total)):
            break
    return total / np.sqrt(2.0 * math.pi * x)


def _dispatch(arr, small_fn, large_fn):
    if arr.ndim == 0:
        return small_fn(arr) if float(arr) <= _SERIES_CUTOFF else large_fn(arr)
    out = np.empty_like(arr)
    small = arr <= _SERIES_CUTOFF
    if np.any(small):
        out[small] = small_fn(arr[small])
    if np.any(~small):
        out[~small] = large_fn(arr[~small])
    return out


def bessel_i0(x):
    """Modified Bessel function of the first kind, order 0.

    Accepts a scalar or array of nonnegative arguments. Relative error is
    below 1e-12 over the working range; arguments past ~709 return ``inf``
    because the true value exceeds double range (use :func:`bessel_i0e`).
    """
    arr, scalar = _prepare(x)
    with np.errstate(over="ignore"):
        out = _dispatch(arr, _i0_series, lambda a: np.exp(a) * _asymptotic_scaled(a, 0))
    return float(out) if scalar else out


def bessel_i1(x):
    """Modified Bessel function of the first kind, order 1 (x >= 0)."""
    arr, scalar = _prepare(x)
    with np.errstate(over="ignore"):
        out = _dispatch(
            arr,
            lambda a: 0.5 * a * _i1_sum(a),
            lambda a: np.exp(a) * _asymptotic_scaled(a, 1),
        )
    return float(out) if scalar else out


def bessel_i0e(x):
    """Exponentially scaled ``exp(-x) * I0(x)``; never overflows."""
    arr, scalar = _prepare(x)
    out = _dispatch(arr, lambda a: np.exp(-a) * _i0_series(a), lambda a: _asymptotic_scaled(a, 0))
    return float(out) if scalar else out


def bessel_i1e(x):
    """Exponentially scaled ``exp(-x) * I1(x)``; never overflows."""
    arr, scalar = _prepare(x)
    out = _dispatch(
        arr,
        lambda a: 0.5 * a * np.exp(-a) * _i1_sum(a),
        lambda a: _asymptotic_scaled(a, 1),
    )
    return float(out) if scalar else out


def bessel_i1e_over_x(x):
    """``exp(-x) * I1(x) / x`` with its finite limit 1/2 at x = 0.

    The ratio appears wherever the chain rule turns a time derivative of I0
    into I1 divided by a vanishing square root; evaluating the series for
    I1(x)/x directly removes the 0/0 at the support boundary.
    """
    arr, scalar = _prepare(x)
    out = _dispatch(
        arr,
        lambda a: 0.5 * np.exp(-a) * _i1_sum(a),
        lambda a: _asymptotic_scaled(a, 1) / a,
    )
    return float(out) if scalar else out
