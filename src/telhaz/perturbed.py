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

from .hazard import HazardSpec, _positive, _times, time_horizon
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


@dataclass(frozen=True)
class SupportBand:
    """Almost-sure envelope of X(t) at one time point."""

    t: float
    a: float
    b: float
    width: float


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
        nu = self.total_excess_hazard
        return 0.0 if math.isinf(nu) else math.exp(-nu)

    def band(self, t: float) -> SupportBand:
        """Endpoints a(t) <= b(t) of the almost-sure band and its width."""
        cum = self.hazard.cumulative(t)  # also validates the domain
        ct = self.noise.c * float(t)
        a = -math.expm1(ct - cum)
        b = -math.expm1(-(ct + cum))
        width = math.exp(ct - cum) - math.exp(-(ct + cum))
        return SupportBand(float(t), a, b, width)

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
        one_minus = 1.0 - arr
        u = np.log((1.0 - band.a) / one_minus) * np.log(one_minus / (1.0 - band.b))
        out = _bessel_density(self.noise, band.t, u, one_minus)
        return float(out) if arr.ndim == 0 else out

    def cdf(self, x, t: float):
        """P{X(t) <= x}, via the monotone map onto the integrated-noise law.

        Outside the closed band the value clamps to 0 below and 1 above.
        Accepts a scalar or an array of ``x``.
        """
        band = self.band(t)  # also validates t
        t = band.t
        arr = np.asarray(x, dtype=float)
        ct = self.noise.c * t
        # X <= x  <=>  W <= log(survival(t) / (1 - x)); clamp the threshold
        # into [-ct, ct] to absorb roundoff at the band endpoints. For x >= 1
        # the log is -inf or NaN; the band clamp below overrides those.
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.clip(-(self.hazard.cumulative(t) + np.log1p(-arr)), -ct, ct)
        inside = w_cdf(self.noise, t, w)
        out = np.where(arr < band.a, 0.0, np.where(arr >= band.b, 1.0, inside))
        return float(out) if arr.ndim == 0 else out

    # -- moments --------------------------------------------------------------

    def mean(self, t):
        """E[X(t)] = 1 - survival(t) * M(-1, t), evaluated overflow-free."""
        cum = self.hazard.cumulative(t)
        out = 1.0 - scaled_mgf(self.noise, -1.0, t, cum)
        return float(out) if np.ndim(t) == 0 else np.asarray(out)

    def variance(self, t):
        """Var[X(t)] = survival^2 * (M(-2,t) - M(-1,t)^2), floored at 0."""
        cum = self.hazard.cumulative(t)
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
        w = sample_path(self.noise, grid, seed)
        return -np.expm1(-(self.hazard.cumulative(grid) + w))
