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
from typing import NamedTuple

import numpy as np

from .hazard import HazardSpec, Slack, _not_nan, _positive, _reals, _refuse, _times
from .telegraph import (
    TelegraphParams,
    _bessel_density,
    _reach,
    sample_paths,
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


def _edges(cum, ct) -> tuple[np.ndarray, np.ndarray]:
    """a(t) = -expm1(c*t - R(t)) and b(t) = -expm1(-(c*t + R(t))), one ``math.expm1`` per time."""
    return -_each(math.expm1, ct - cum), -_each(math.expm1, -(ct + cum))


class SupportBand(NamedTuple):
    """Almost-sure envelope of X(t): floats at one time point, arrays over an array of times."""

    t: float | np.ndarray
    a: float | np.ndarray
    b: float | np.ndarray
    width: float | np.ndarray


@dataclass(frozen=True)
class PerturbedModel:
    """A baseline hazard paired with the alternating-noise parameters.

    Construction requires the dominance condition r > c on the whole support,
    checked by ``hazard.min_slack(c, 0.0, support_end)`` and kept as ``slack``.
    """

    hazard: HazardSpec
    noise: TelegraphParams

    def __post_init__(self):
        if not self.slack.holds:
            c, t = self.noise.c, self.slack.t
            raise ValueError(f"dominance r(t) > c fails at t = {t:.6g} (c = {c})")

    @cached_property
    def slack(self) -> Slack:
        """Infimum of r - c over the whole support, where it lies, and whether it is attained."""
        return self.hazard.min_slack(self.noise.c, 0.0, self.hazard.support_end)

    # -- band geometry ------------------------------------------------------

    @cached_property
    def total_excess_hazard(self) -> float:
        """nu = integral of (r - c) over the whole support; may be inf.

        Evaluated through the exact cumulative hazard, nu(T) = R(T) - c*T,
        by doubling T until the value either exceeds the underflow cap or
        stops changing. Once c*T has no digit left at that tolerance, the
        doubling goes on only while nu grows by more than two of its last
        digits (it is heading for the cap); where it does not, or where T would
        leave the double range, the difference has cancelled before nu settled,
        and a ValueError names c and T. A finite support or a slack > 0 (r - c
        stays above it for ever) forces nu = inf; only a slack of 0 is doubled for.
        """
        if math.isfinite(self.hazard.support_end) or self.slack.value > 0.0:
            return math.inf
        c = self.noise.c
        horizon = 1.0
        value = self.hazard.cumulative(horizon) - c * horizon
        stable = 0
        while True:
            horizon *= 2.0
            nxt = self.hazard.cumulative(horizon) - c * horizon
            if not math.isfinite(nxt) or nxt > _NU_CAP:
                return math.inf
            change, value = nxt - value, nxt
            tolerance = 1e-12 * max(1.0, abs(value))
            stable = stable + 1 if abs(change) <= tolerance else 0
            if stable >= 2:
                return value
            noise = math.ulp(c * horizon)
            if (noise > tolerance and change <= 2.0 * noise) or math.isinf(2.0 * horizon):
                raise ValueError(
                    "nu = R(T) - c*T does not converge in double precision: it has not "
                    f"settled at c = {c!r}, T = {horizon!r}"
                )

    def terminal_band_width(self) -> float:
        """Limit of the band width at the end of the support: exp(-nu)."""
        return math.exp(-self.total_excess_hazard)

    def _cumulative(self, t):
        """R(t) and c*t, floats for a scalar ``t``: the gate every time of X passes.

        Refused outside the support, where c*t is inf (``telegraph._reach``), and where R(t) < c*t:
        r < c somewhere on (0, t], past the build check only for a pair that breaks its contract.
        """
        cum = self.hazard.cumulative(t)  # also validates the domain
        ct = _reach(self.noise, t)
        c = self.noise.c
        _refuse(cum < ct, t, lambda at: f"dominance r(t) > c fails before t = {at:.6g} (c = {c})")
        return cum, ct

    def band(self, t) -> SupportBand:
        """Endpoints a(t) <= b(t) of the almost-sure band and its width, at a time or an array.

        R(t) is evaluated once over all of ``t``; each endpoint is then one
        ``math.expm1`` (see ``_edges``) and the width two ``math.exp`` per time, so
        an array gives the same bits as one call per time. A scalar ``t`` gives floats.
        """
        cum, ct = self._cumulative(t)
        times = np.asarray(t, dtype=float)
        a, b = _edges(cum, ct)
        width = _each(math.exp, ct - cum) - _each(math.exp, -(ct + cum))  # (1 - a) - (1 - b)
        if times.ndim == 0:
            return SupportBand(float(times), float(a), float(b), float(width))
        return SupportBand(times, a, b, width)

    def band_width_nondecreasing(self, t: float) -> bool:
        """Whether the band width is non-decreasing at t: r(t) <= c*coth(c*t).

        Undefined at t = 0 (coth blows up; the width always grows off 0). ``t`` is one real
        number: an array is refused by name, as in :meth:`atom_prob`.
        """
        rate = self.hazard.rate(t)  # also validates the domain
        t = _positive("t", t, allow_zero=True)
        if t == 0.0:
            raise ValueError("t must be > 0, got 0.0")
        return rate <= self.noise.c / math.tanh(self.noise.c * t)

    # -- one-time-point law --------------------------------------------------

    def atom_prob(self, t: float) -> float:
        """Mass P{X(t) = a(t)} = P{X(t) = b(t)} = exp(-lam*t)/2."""
        self._cumulative(t)  # refused where band(t) would be
        return w_atom_prob(self.noise, t)

    def density(self, x, t: float):
        """Density of the continuous part of X(t) on the open band.

        X(t) = 1 - survival(t) e^{-W(t)} is monotone in W(t), so this is the
        Bessel-type density of W(t) at w = log(survival(t) / (1 - x)), divided
        by the jacobian dx/dw = 1 - x. Its spread c^2 t^2 - w^2 is taken in
        the factored form

            u(x, t) = log((1-a)/(1-x)) * log((1-x)/(1-b)),

        which stays accurate (and provably nonnegative) as x approaches either endpoint, where
        the naive c^2 t^2 - log^2(...) cancels. ``x`` is a real number or an array of them.
        Past 2^14 points, on more than one CPU, the caller and one helper thread share the
        blocks, each with its own numpy error state, and the helper is joined before the call
        returns; the values keep their bits, and on 1e6 points the traced peak is ~1.22 times
        the output's bytes (see ``telegraph._bessel_density``).
        """
        band = self.band(t)  # also validates t
        _positive("t", band.t)  # t = 0 leaves the band no interior
        arr = _reals("x", x)
        _refuse(~((arr > band.a) & (arr < band.b)), arr, lambda at: (  # NaN fails too
            f"x must lie strictly inside the band ({band.a}, {band.b}); the endpoints carry atoms"))
        if band.b == 1.0:  # the log below would divide by 1 - b(t) = 0
            raise ValueError(f"t = {band.t!r}: b(t) rounds to 1, so the density cannot be resolved")

        def spread(x):  # u and the jacobian 1 - x, for one block of points
            one_minus = 1.0 - x
            u = np.log((1.0 - band.a) / one_minus) * np.log(one_minus / (1.0 - band.b))
            return u, one_minus

        return _bessel_density(self.noise, band.t, arr, spread)

    def cdf(self, x, t: float):
        """P{X(t) <= x}, via the monotone map onto the integrated-noise law.

        ``x`` is a real number or an array of them; NaN, a bool or a string is refused by name.
        Outside the closed band the value clamps to 0 below and 1 above, so -inf and +inf give
        0 and 1. The first call in a process imports ``scipy.special`` (through :func:`w_cdf`).
        """
        cum, ct = self._cumulative(t)  # also validates t
        a, b = _edges(cum, ct)
        arr = _not_nan("x", x)
        # X <= x  <=>  W <= log(survival(t) / (1 - x)); clamp the threshold
        # into [-ct, ct] to absorb roundoff at the band endpoints. For x >= 1
        # the log is -inf or NaN; such points lie outside the band, so w_cdf
        # gets 0 there and the band clamp below overrides them.
        outside = (arr < a) | (arr >= b)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.clip(-(cum + np.log1p(-arr)), -ct, ct)
        # t as a float, or refused by w_cdf as the array of times band(t) would hold
        inside = w_cdf(self.noise, np.asarray(t, dtype=float)[()], np.where(outside, 0.0, w))
        out = np.where(arr < a, 0.0, np.where(arr >= b, 1.0, inside))
        return float(out) if arr.ndim == 0 else out

    # -- moments --------------------------------------------------------------

    def mean(self, t):
        """E[X(t)] = 1 - survival(t) * M(-1, t), evaluated overflow-free."""
        cum, _ = self._cumulative(t)
        return 1.0 - scaled_mgf(self.noise, -1.0, t, cum)  # a float for a scalar t, as scaled_mgf

    def variance(self, t):
        """Var[X(t)] = survival^2 * (M(-2,t) - M(-1,t)^2), floored at 0."""
        cum, _ = self._cumulative(t)
        with np.errstate(over="ignore"):  # a 2R past the double range is inf, as R would be
            second = scaled_mgf(self.noise, -2.0, t, 2.0 * cum)
        first = scaled_mgf(self.noise, -1.0, t, cum)
        out = np.maximum(np.asarray(second) - np.asarray(first) ** 2, 0.0)
        return float(out) if np.ndim(t) == 0 else out

    # -- simulation ------------------------------------------------------------

    def sample_paths(self, time_grid, seeds):
        """Sample paths of X at the nondecreasing times ``time_grid`` < support_end, one per seed.

        Every refusal of the grid, R < c*t among them, is raised by the call, before any path is
        drawn, also for no seeds. R(grid) is built once. The W paths of
        :func:`telegraph.sample_paths` are drawn a batch at a time, in O(grid size + 2^16)
        memory, and each is mapped through X = 1 - exp(-(R + W)) as it is read. ``np.expm1``
        and the band's ``math.expm1`` may differ in the last bit, so a value below a(t) is
        replaced by a(t) and one above b(t) by b(t): every path lies in the band of
        :meth:`band`. A bad seed is refused once the paths before it have been read.
        """
        grid = _times(time_grid, self.hazard.support_end, "time_grid")
        cum, ct = self._cumulative(grid)
        a, b = _edges(cum, ct)

        def inside(w):  # compared, not clipped: an x on an edge stays, x(0) = 0.0 not a(0) = -0.0
            x = -np.expm1(-(cum + w))
            return np.where(x < a, a, np.where(x > b, b, x))

        return (inside(w) for w in sample_paths(self.noise, grid, seeds))
