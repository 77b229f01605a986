"""Two-state alternating velocity process and the law of its time integral.

The velocity flips between +c and -c at the jump times of a Poisson process
with rate ``lam``; the starting sign is a fair coin flip. Its running
integral W(t) is piecewise linear, confined to [-ct, ct], and carries an
atom of mass exp(-lam*t)/2 at each endpoint plus a smooth Bessel-type
density in between. Everything here is either an exact simulation or a
closed form; no time discretization or quadrature is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln, xlogy

from .hazard import _count, _positive, _times
from .special import bessel_i0e, bessel_i1e_over_x

# Poisson mass the W(t) CDF may leave out of its mixture over switch counts.
_POISSON_TAIL = 1e-16


@dataclass(frozen=True)
class TelegraphParams:
    """Noise amplitude ``c`` and Poisson switching rate ``lam`` (both > 0)."""

    c: float
    lam: float

    def __post_init__(self):
        for name in ("c", "lam"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))


@dataclass(frozen=True)
class TelegraphPath:
    """One realized trajectory, stored as its switching epochs.

    ``initial_sign`` is the sign of the velocity at time 0 and
    ``event_times`` are the strictly increasing switch times inside
    ``(0, horizon]``.
    """

    initial_sign: int
    event_times: tuple[float, ...]
    horizon: float

    def __post_init__(self):
        if self.initial_sign not in (-1, 1):
            raise ValueError(f"initial_sign must be -1 or +1, got {self.initial_sign!r}")
        object.__setattr__(self, "horizon", _positive("horizon", self.horizon))
        times = tuple(float(t) for t in self.event_times)
        object.__setattr__(self, "event_times", times)
        previous = 0.0
        for t in times:
            if not previous < t <= self.horizon:
                raise ValueError("event_times must be strictly increasing within (0, horizon]")
            previous = t


def sample_path(params: TelegraphParams, horizon: float, seed: int) -> TelegraphPath:
    """Draw one trajectory on [0, horizon] by exact exponential inter-arrivals."""
    horizon = _positive("horizon", horizon)
    rng = np.random.default_rng(seed)
    sign = 1 if rng.random() < 0.5 else -1
    mean_gap = 1.0 / params.lam
    expected = params.lam * horizon
    block = max(8, int(expected + 6.0 * math.sqrt(expected) + 8.0))
    events: list[float] = []
    start = 0.0
    while True:
        arrivals = start + np.cumsum(rng.exponential(mean_gap, size=block))
        inside = arrivals[arrivals < horizon]
        events.extend(inside.tolist())
        if inside.size < arrivals.size:
            break
        start = float(arrivals[-1])
    return TelegraphPath(sign, tuple(events), horizon)


def integrate_path(path: TelegraphPath, params: TelegraphParams, t):
    """Exact integral of the velocity along ``path`` up to time ``t``.

    Accepts a scalar or an array of times in [0, horizon]. The signed segment
    lengths are summed left to right, so every value equals the one a walk
    over the events up to ``t`` gives, to the last bit.
    """
    arr = _times(t, math.nextafter(path.horizon, math.inf))  # [0, horizon], closed
    starts = np.array((0.0, *path.event_times))
    signs = np.where(np.arange(starts.size) % 2, -1.0, 1.0) * path.initial_sign
    # integral up to each segment start, then the partial segment up to t
    reached = np.concatenate(([0.0], np.cumsum(signs[:-1] * np.diff(starts))))
    k = np.searchsorted(starts[1:], arr, side="left")
    out = params.c * (reached[k] + signs[k] * (arr - starts[k]))
    return float(out) if arr.ndim == 0 else out


def sample_w(params: TelegraphParams, t: float, n_paths: int, seed: int) -> np.ndarray:
    """Vectorized draw of W(t) for ``n_paths`` independent trajectories.

    Given N ~ Poisson(lam t) switches, the N + 1 segment lengths are t times
    a flat Dirichlet vector, so the time spent on the starting side is t B
    with B ~ Beta(ceil((N+1)/2), floor((N+1)/2)) and W(t) = +-ct (2B - 1);
    B = 1 when N = 0. This is distributionally identical to integrating
    :func:`sample_path` output (the tests cross-check the two samplers) and
    needs O(n_paths) memory whatever ``lam * t``.
    """
    t = _positive("t", t)
    n_paths = _count("n_paths", n_paths, 0)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(params.lam * t, size=n_paths)
    signs = np.where(rng.random(n_paths) < 0.5, 1.0, -1.0)
    b = np.ones(n_paths)
    switched = counts > 0
    b[switched] = rng.beta((counts[switched] + 2) // 2, (counts[switched] + 1) // 2)
    return params.c * t * signs * (2.0 * b - 1.0)


def w_atom_prob(params: TelegraphParams, t: float) -> float:
    """Probability mass sitting at each of the two endpoints +-c*t."""
    t = _positive("t", t, allow_zero=True)
    return 0.5 * math.exp(-params.lam * t)


def _bessel_density(params: TelegraphParams, t: float, spread2, jacobian):
    """The Bessel-type interior density that W(t) and X(t) share.

    The time derivative of I0 is expanded analytically into I1, and the
    whole bracket is evaluated in exponentially scaled form so that large
    ``lam * t`` never overflows:

        exp(z - lam t) * [lam I0e(z) + lam^2 t (I1(z)/z) e^{-z}] / (2c * jacobian)

    with z = (lam/c) sqrt(spread2), a negative spread2 from roundoff read as 0.
    """
    c, lam = params.c, params.lam
    z = (lam / c) * np.sqrt(np.maximum(spread2, 0.0))
    bracket = lam * bessel_i0e(z) + lam * lam * t * bessel_i1e_over_x(z)
    return bracket * np.exp(z - lam * t) / (2.0 * c * jacobian)


def w_density(params: TelegraphParams, t: float, x):
    """Density of the continuous part of W(t) on the open interval (-ct, ct).

    The Bessel-type density at spread2 = c^2 t^2 - x^2, taken in factored
    form, with jacobian 1.
    """
    t = _positive("t", t)
    ct = params.c * t
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) >= ct):
        raise ValueError("x must lie strictly inside (-c*t, c*t); the endpoints carry atoms")
    out = _bessel_density(params, t, (ct - arr) * (ct + arr), 1.0)
    return float(out) if arr.ndim == 0 else out


def _poisson_terms(mean: float) -> tuple[np.ndarray, np.ndarray]:
    """Counts n and Poisson(mean) weights, leaving out at most 1e-16 of the mass.

    The window mean -+ (10 sqrt(mean) + 40) misses less than 1e-21 of the mass
    (Bernstein's tail bound); each side is then cut where its tail mass
    reaches half the budget, which keeps O(sqrt(mean)) terms.
    """
    reach = 10.0 * math.sqrt(mean) + 40.0
    n = np.arange(max(0, math.floor(mean - reach)), math.ceil(mean + reach) + 1)
    weights = np.exp(xlogy(n, mean) - mean - gammaln(n + 1.0))
    below = np.cumsum(weights)
    above = np.cumsum(weights[::-1])[::-1]
    keep = (below > 0.5 * _POISSON_TAIL) & (above > 0.5 * _POISSON_TAIL)
    return n[keep], weights[keep]


def w_cdf(params: TelegraphParams, t: float, w):
    """P{W(t) <= w} as a Poisson mixture of incomplete-beta laws.

    With N switches, W(t) = +-ct (2B - 1) and B ~ Beta(a, b), a = ceil((N+1)/2),
    b = floor((N+1)/2) (see :func:`sample_w`), so with y = (w/ct + 1)/2

        P{W(t) <= w | N} = [I_y(a, b) + I_y(b, a)] / 2,

    which is 1/2 on [-ct, ct) when N = 0: the lower endpoint atom. Accepts a
    scalar or an array of ``w``.
    """
    t = _positive("t", t, allow_zero=True)
    arr = np.asarray(w, dtype=float)
    ct = params.c * t
    mix = np.zeros_like(arr)
    if t > 0.0:
        y = np.clip(0.5 * (arr / ct + 1.0), 0.0, 1.0)
        counts, weights = _poisson_terms(params.lam * t)
        for n, p in zip(counts.tolist(), weights.tolist()):
            a, b = (n + 2) // 2, (n + 1) // 2
            mix += p * (0.5 * (betainc(a, b, y) + betainc(b, a, y)) if n else 0.5)
    out = np.where(arr >= ct, 1.0, np.where(arr < -ct, 0.0, np.minimum(mix, 1.0)))
    return float(out) if arr.ndim == 0 else out


def scaled_mgf(params: TelegraphParams, s: float, t, log_scale):
    """``exp(-log_scale) * E[exp(s W(t))]`` without overflowing intermediates.

    Splitting cosh/sinh into single exponentials keeps every term bounded
    whenever ``log_scale`` grows at least like the dominant exponent, which
    is exactly the situation in the perturbed-process moment formulas.
    Accepts arrays for ``t`` and ``log_scale``.
    """
    omega = math.hypot(params.lam, s * params.c)
    ratio = params.lam / omega
    ta = _times(t)
    shift = np.asarray(log_scale, dtype=float)
    out = 0.5 * (1.0 + ratio) * np.exp((omega - params.lam) * ta - shift) + 0.5 * (
        1.0 - ratio
    ) * np.exp(-(omega + params.lam) * ta - shift)
    return float(out) if ta.ndim == 0 and shift.ndim == 0 else out


def mgf(params: TelegraphParams, s: float, t):
    """Moment generating function E[exp(s W(t))]; symmetric in s <-> -s."""
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    return scaled_mgf(params, s, t, 0.0)


def w_mean_var(params: TelegraphParams, t: float) -> tuple[float, float]:
    """Mean (identically 0 by symmetry) and variance of W(t).

    The variance comes from the second s-derivative of the generating
    function at s = 0, reduced in closed form to
    ``(c/lam)^2 (lam t - (1 - e^{-2 lam t})/2)``.
    """
    t = _positive("t", t, allow_zero=True)
    lam = params.lam
    variance = (params.c / lam) ** 2 * (lam * t + 0.5 * math.expm1(-2.0 * lam * t))
    return 0.0, max(variance, 0.0)
