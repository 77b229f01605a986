"""Random distribution-function process driven by a noise-perturbed hazard.

Adding the alternating noise V(t) to a baseline hazard r(t) turns the
lifetime CDF into the random process

    X(t) = 1 - survival(t) * exp(-W(t)),

where W is the integrated noise. For each t the law of X(t) has two atoms
of mass exp(-lam*t)/2 on the endpoints of the almost-sure band
[a(t), b(t)] (the CDFs with hazards r -+ c) and a smooth density inside.
The dominance condition r(t) > c makes every sample path a bona fide
distribution function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hazard import HazardSpec, _not_nan, _positive, _times, time_horizon
from .telegraph import (
    TelegraphParams,
    _bessel_density,
    sample_path,
    scaled_mgf,
    w_atom_prob,
    w_cdf,
)

# Past this excess cumulative hazard, exp(-nu) underflows: treat nu as infinite.
_NU_CAP = 700.0


def _each(f, values) -> np.ndarray:
    """``f`` of each element of ``values``, through Python floats, in the shape of ``values``.

    For ``math`` functions, whose bits numpy's ufuncs need not reproduce.
    """
    values = np.asarray(values)
    return np.fromiter(map(f, values.ravel().tolist()), float, values.size).reshape(values.shape)


@dataclass(frozen=True)
class SupportBand:
    """Almost-sure envelope of X(t): floats at one time point, arrays over an array of times."""

    t: float | np.ndarray
    a: float | np.ndarray
    b: float | np.ndarray
    width: float | np.ndarray


@dataclass(frozen=True)
class PerturbedModel:
    """A baseline hazard paired with the alternating-noise parameters.

    Construction requires the dominance condition r > c on (0, horizon],
    checked by :meth:`HazardSpec.min_slack`. The horizon is the hazard's
    :func:`time_horizon`, or just short of a finite support end.
    """

    hazard: HazardSpec
    noise: TelegraphParams

    def __post_init__(self):
        end = self.hazard.support_end
        horizon = end * (1.0 - 1e-9) if math.isfinite(end) else time_horizon(self.hazard)
        slack, t = self.hazard.min_slack(self.noise.c, 0.0, horizon)
        if not slack > 0.0:
            raise ValueError(f"dominance r(t) > c fails at t = {t:.6g} (c = {self.noise.c})")

    # -- band geometry ------------------------------------------------------

    @cached_property
    def total_excess_hazard(self) -> float:
        """nu = integral of (r - c) over the whole support; may be inf.

        Evaluated through the exact cumulative hazard, nu(T) = R(T) - c*T,
        by doubling T until the value either exceeds the underflow cap or
        stops changing. A finite support forces nu = inf.
        """
        if math.isfinite(self.hazard.support_end):
            return math.inf
        c = self.noise.c
        horizon = 1.0
        value = self.hazard.cumulative(horizon) - c * horizon
        stable = 0
        for _ in range(2100):
            horizon *= 2.0
            nxt = self.hazard.cumulative(horizon) - c * horizon
            if not math.isfinite(nxt) or nxt > _NU_CAP:
                return math.inf
            stable = stable + 1 if abs(nxt - value) <= 1e-12 * max(1.0, abs(nxt)) else 0
            value = nxt
            if stable >= 2:
                return value
        return math.inf

    def terminal_band_width(self) -> float:
        """Limit of the band width at the end of the support: exp(-nu)."""
        return math.exp(-self.total_excess_hazard)

    def _cumulative(self, t):
        """R(t), refused where c*t leaves the double range and where R(t) < c*t.

        R(t) < c*t means r < c somewhere on (0, t], past the checked horizon.
        """
        cum = self.hazard.cumulative(t)  # also validates the domain
        times = np.asarray(t, dtype=float)
        c = self.noise.c
        with np.errstate(over="ignore"):  # an infinite c*t is refused by name below
            ct = c * times
        endless = times[np.isinf(ct)]
        if endless.size:
            first = float(endless.min())
            raise ValueError(
                f"c = {c!r} up to t = {first!r} lets |W| reach c * t = inf; it must be finite"
            )
        short = times[cum < ct]
        if short.size:
            raise ValueError(f"dominance r(t) > c fails before t = {short.min():.6g} (c = {c})")
        return cum

    def band(self, t) -> SupportBand:
        """Endpoints a(t) <= b(t) of the almost-sure band and its width, at a time or an array.

        R(t) is evaluated once over all of ``t``; each endpoint is then one
        ``math.expm1`` and the width two ``math.exp`` per time, so an array
        gives the same bits as one call per time. A scalar ``t`` gives floats.
        """
        cum = self._cumulative(t)
        times = np.asarray(t, dtype=float)
        ct = self.noise.c * times
        lower, upper = ct - cum, -(ct + cum)  # log(1 - a(t)) and log(1 - b(t))
        a, b = -_each(math.expm1, lower), -_each(math.expm1, upper)
        width = _each(math.exp, lower) - _each(math.exp, upper)
        if times.ndim == 0:
            return SupportBand(float(times), float(a), float(b), float(width))
        return SupportBand(times, a, b, width)

    def band_width_nondecreasing(self, t: float) -> bool:
        """Whether the band width is non-decreasing at t: r(t) <= c*coth(c*t).

        Undefined at t = 0 (coth blows up; the width always grows off 0).
        """
        rate = self.hazard.rate(t)  # also validates the domain
        if t == 0.0:
            raise ValueError("t must be > 0, got 0.0")
        return rate <= self.noise.c / math.tanh(self.noise.c * float(t))

    # -- one-time-point law --------------------------------------------------

    def atom_prob(self, t: float) -> float:
        """Mass P{X(t) = a(t)} = P{X(t) = b(t)} = exp(-lam*t)/2."""
        _times(t, self.hazard.support_end)
        return w_atom_prob(self.noise, t)

    def density(self, x, t: float):
        """Density of the continuous part of X(t) on the open band.

        X(t) = 1 - survival(t) e^{-W(t)} is monotone in W(t), so this is the
        Bessel-type density of W(t) at w = log(survival(t) / (1 - x)), divided
        by the jacobian dx/dw = 1 - x. Its spread c^2 t^2 - w^2 is taken in
        the factored form

            u(x, t) = log((1-a)/(1-x)) * log((1-x)/(1-b)),

        which stays accurate (and provably nonnegative) as x approaches
        either endpoint, where the naive c^2 t^2 - log^2(...) cancels.
        """
        band = self.band(t)  # also validates t
        _positive("t", band.t)  # t = 0 leaves the band no interior
        arr = np.asarray(x, dtype=float)
        if not np.all((arr > band.a) & (arr < band.b)):  # NaN fails too
            raise ValueError(
                f"x must lie strictly inside the band ({band.a}, {band.b}); "
                "the endpoints carry atoms"
            )
        if band.b == 1.0:  # the log below would divide by 1 - b(t) = 0
            raise ValueError(f"t = {band.t!r}: b(t) rounds to 1, so the density cannot be resolved")
        one_minus = 1.0 - arr
        u = np.log((1.0 - band.a) / one_minus) * np.log(one_minus / (1.0 - band.b))
        out = _bessel_density(self.noise, band.t, u, one_minus)
        return float(out) if arr.ndim == 0 else out

    def cdf(self, x, t: float):
        """P{X(t) <= x}, via the monotone map onto the integrated-noise law.

        Outside the closed band the value clamps to 0 below and 1 above, so
        -inf and +inf give 0 and 1; NaN is refused by name. Accepts a scalar
        or an array of ``x``. The first call in a process imports
        ``scipy.special`` (through :func:`w_cdf`).
        """
        band = self.band(t)  # also validates t
        t = band.t
        arr = _not_nan("x", x)
        ct = self.noise.c * t
        # X <= x  <=>  W <= log(survival(t) / (1 - x)); clamp the threshold
        # into [-ct, ct] to absorb roundoff at the band endpoints. For x >= 1
        # the log is -inf or NaN; such points lie outside the band, so w_cdf
        # gets 0 there and the band clamp below overrides them.
        outside = (arr < band.a) | (arr >= band.b)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.clip(-(self.hazard.cumulative(t) + np.log1p(-arr)), -ct, ct)
        inside = w_cdf(self.noise, t, np.where(outside, 0.0, w))
        out = np.where(arr < band.a, 0.0, np.where(arr >= band.b, 1.0, inside))
        return float(out) if arr.ndim == 0 else out

    # -- moments --------------------------------------------------------------

    def mean(self, t):
        """E[X(t)] = 1 - survival(t) * M(-1, t), evaluated overflow-free."""
        cum = self._cumulative(t)
        out = 1.0 - scaled_mgf(self.noise, -1.0, t, cum)
        return float(out) if np.ndim(t) == 0 else out

    def variance(self, t):
        """Var[X(t)] = survival^2 * (M(-2,t) - M(-1,t)^2), floored at 0."""
        cum = self._cumulative(t)
        with np.errstate(over="ignore"):  # a 2R past the double range is inf, as R would be
            second = scaled_mgf(self.noise, -2.0, t, 2.0 * cum)
        first = scaled_mgf(self.noise, -1.0, t, cum)
        out = np.maximum(np.asarray(second) - np.asarray(first) ** 2, 0.0)
        return float(out) if np.ndim(t) == 0 else out

    # -- simulation ------------------------------------------------------------

    def sample_path_values(self, time_grid, seed: int) -> np.ndarray:
        """One sample path of X: its values at the nondecreasing times of ``time_grid``.

        Draws a single noise trajectory with :func:`sample_path` and maps it
        through X(t) = 1 - exp(-(R(t) + W(t))). Grid times must satisfy
        t < support_end.
        """
        grid = _times(time_grid, self.hazard.support_end, "time_grid")
        cum = self._cumulative(grid)  # refused before a path is drawn
        return -np.expm1(-(cum + sample_path(self.noise, grid, seed)))
