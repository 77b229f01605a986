"""Kernel estimation of density, CDF and hazard, with defensibility bands.

The hazard estimate is the ratio of a kernel density estimate to the
implied survival estimate. Its pointwise asymptotic confidence band feeds
the model-adequacy check: the perturbed-hazard model is defensible for a
data set at noise amplitude ``c`` when the strip of width 2c around the
baseline hazard fits inside the band over the interior of the sample range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .hazard import HazardSpec, _count, _interior, _positive

_SQRT5 = math.sqrt(5.0)
_TAIL_EPS = 1e-12
# pairs (grid point, observation) evaluated at once by kde; bounds its memory
_BLOCK = 1 << 18


def _alpha(name: str, value) -> float:
    """``value`` as a float: a real number but not a bool, in the open (0, 0.5)."""
    alpha = _positive(name, value)
    if not alpha < 0.5:
        raise ValueError(f"{name} must lie in (0, 0.5), got {value!r}")
    return alpha


class UpperTailError(ValueError):
    """Raised where the estimated survival is too small for a stable ratio."""


@dataclass(frozen=True)
class Kernel:
    """Parabolic kernel on [-sqrt(5), sqrt(5)], variance-normalized (Epanechnikov).

    Each formula is evaluated only inside the support, where its value is
    kept; outside, the density is 0 and the CDF 0 or 1.
    """

    l2_constant = 3.0 * _SQRT5 / 25.0
    support_radius = _SQRT5

    def evaluate(self, u):
        """(density, CDF) at ``u``, from one support mask; NaN is inside, so it gives NaN."""
        u = np.asarray(u, dtype=float)
        k = np.zeros_like(u)
        K = np.array(u > _SQRT5, dtype=float)  # not .astype: a 0-d result must stay assignable
        inside = ~((u < -_SQRT5) | (u > _SQRT5))
        v = u[inside]
        # the maximum also absorbs roundoff of 1 - v^2/5 at exactly +-sqrt(5)
        k[inside] = np.maximum(3.0 / (4.0 * _SQRT5) * (1.0 - v * v / 5.0), 0.0)
        K[inside] = 0.5 + 3.0 / (4.0 * _SQRT5) * (v - v**3 / 15.0)
        return k, K

    def density(self, u):
        return self.evaluate(u)[0]

    def cdf(self, u):
        return self.evaluate(u)[1]


EPANECHNIKOV = Kernel()


@dataclass(frozen=True)
class Sample:
    """Sorted positive lifetimes; at least three observations."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 3:
            raise ValueError(f"sample needs at least 3 values, got {arr.size}")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("sample values must be finite and > 0")
        if np.any(np.diff(arr) < 0.0):
            raise ValueError("sample values must be sorted nondecreasing")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_values(cls, values) -> "Sample":
        return cls(np.sort(np.asarray(values, dtype=float)))

    @property
    def n(self) -> int:
        return int(self.values.size)


def kde(sample: Sample, h: float, t):
    """(f_hat, F_hat) at ``t``: (nh)^-1 sum k(u_i) and n^-1 sum K(u_i), u_i = (t - T_i)/h.

    K is the kernel antiderivative, so f_hat integrates to one over the real
    line. A scalar ``t`` gives two floats. The grid is walked in blocks of
    at most ``_BLOCK`` pairs (one grid point per block at least), so memory
    is O(n) whatever the grid size; each point's sum is the same as over the
    whole matrix, bit for bit.
    """
    h = _positive("bandwidth", h)
    ta = np.asarray(t, dtype=float)
    flat = ta.reshape(-1)
    f = np.empty_like(flat)
    F = np.empty_like(flat)
    step = max(1, _BLOCK // sample.n)
    for start in range(0, flat.size, step):
        rows = slice(start, start + step)
        k, K = EPANECHNIKOV.evaluate((flat[rows, None] - sample.values) / h)
        f[rows] = k.mean(axis=-1) / h
        F[rows] = K.mean(axis=-1)
    if ta.ndim == 0:
        return float(f[0]), float(F[0])
    return f.reshape(ta.shape), F.reshape(ta.shape)


def hazard_estimate(sample: Sample, h: float, t):
    """Estimated hazard f_hat / (1 - F_hat); refuses the unstable upper tail."""
    f, F = kde(sample, h, t)
    if np.any(np.asarray(F) > 1.0 - _TAIL_EPS):
        raise UpperTailError(
            "estimated CDF is within 1e-12 of 1; the hazard ratio is unstable there"
        )
    return f / (1.0 - F)


@dataclass(frozen=True)
class BandConfig:
    """Bandwidth, tail level and evaluation grid for the confidence band.

    When ``grid`` is omitted, evaluation uses ``grid_size`` uniform points
    strictly between the 1st and (n-1)-th order statistics (one grid step
    trimmed at each end). Either grid must be strictly increasing and lie
    strictly inside that interval.
    """

    h: float
    alpha: float
    grid_size: int = 512
    grid: np.ndarray | None = None

    def __post_init__(self):
        _positive("bandwidth", self.h)
        object.__setattr__(self, "alpha", _alpha("alpha", self.alpha))
        object.__setattr__(self, "grid_size", _count("grid_size", self.grid_size, 2))
        if self.grid is not None:
            arr = np.asarray(self.grid, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError("explicit grid must be a non-empty 1-d sequence")
            object.__setattr__(self, "grid", arr)

    def resolve_grid(self, sample: Sample) -> np.ndarray:
        lo = float(sample.values[0])
        hi = float(sample.values[-2])
        grid = np.linspace(lo, hi, self.grid_size + 2)[1:-1] if self.grid is None else self.grid
        return _interior(grid, lo, hi, "grid for this sample")


@dataclass(frozen=True)
class ConfidenceBand:
    """Pointwise band rate -+ halfwidth; unusable grid points are masked out.

    ``usable`` is False where the density estimate (or the survival
    estimate) was too small for the asymptotic variance formula; those
    entries of the band arrays are NaN and excluded from any verdicts.
    """

    grid: np.ndarray
    rate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    density: np.ndarray
    cdf: np.ndarray
    usable: np.ndarray

    @property
    def halfwidth(self) -> np.ndarray:
        return self.upper - self.rate


def confidence_band(sample: Sample, config: BandConfig) -> ConfidenceBand:
    """Asymptotic band r_hat -+ sqrt(K/(n h f_hat)) r_hat z_alpha per grid point."""
    grid = config.resolve_grid(sample)
    f, F = kde(sample, config.h, grid)
    usable = (f >= _TAIL_EPS) & (F <= 1.0 - _TAIL_EPS)
    z = -float(ndtri(config.alpha))
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(usable, f / (1.0 - F), np.nan)
        half = np.where(
            usable,
            np.sqrt(EPANECHNIKOV.l2_constant / (sample.n * config.h * f)) * rate * z,
            np.nan,
        )
    return ConfidenceBand(
        grid=grid,
        rate=rate,
        lower=rate - half,
        upper=rate + half,
        density=f,
        cdf=F,
        usable=usable,
    )


@dataclass(frozen=True)
class DefensibilityReport:
    """Outcome of the strip test at amplitude ``c``.

    ``margin`` is halfwidth - |baseline - rate| - c per usable grid point;
    the test holds exactly when c <= max_admissible_c, i.e. when the margin
    is nonnegative everywhere it is defined.
    """

    holds: bool
    c: float
    max_admissible_c: float
    margin: np.ndarray
    violating_t: float | None
    band: ConfidenceBand
    baseline_rate: np.ndarray


def defensibility_test(
    sample: Sample,
    config: BandConfig,
    baseline: HazardSpec,
    c: float,
) -> DefensibilityReport:
    """Check |r - r_hat| <= halfwidth - c over the grid; report the margin.

    Requires the baseline to dominate the amplitude (r > c) on
    (grid[0], grid[-1]], mirroring the model's own admissibility condition.
    """
    c = _positive("c", c)
    band = confidence_band(sample, config)
    slack, t = baseline.min_slack(c, float(band.grid[0]), float(band.grid[-1]))
    if not slack > 0.0:
        raise ValueError(f"baseline hazard fails r(t) > c at t = {t:.6g}")
    if not np.any(band.usable):
        raise ValueError("no usable grid points: density estimate vanishes everywhere")
    baseline_rate = np.asarray(baseline.rate(band.grid), dtype=float)
    slack = band.halfwidth - np.abs(baseline_rate - band.rate)
    max_admissible = max(0.0, float(np.nanmin(np.where(band.usable, slack, np.nan))))
    margin = slack - c
    holds = c <= max_admissible
    violating_t = None
    if not holds:
        bad = np.nonzero(band.usable & (margin < 0.0))[0]
        if bad.size:
            violating_t = float(band.grid[bad[0]])
    return DefensibilityReport(
        holds=holds,
        c=c,
        max_admissible_c=max_admissible,
        margin=margin,
        violating_t=violating_t,
        band=band,
        baseline_rate=baseline_rate,
    )
