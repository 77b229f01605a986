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

from .hazard import HazardSpec, validate_dominance

_SQRT5 = math.sqrt(5.0)
_TAIL_EPS = 1e-12


class UpperTailError(ValueError):
    """Raised where the estimated survival is too small for a stable ratio."""


@dataclass(frozen=True)
class Kernel:
    """Parabolic kernel on [-sqrt(5), sqrt(5)], variance-normalized (Epanechnikov)."""

    l2_constant = 3.0 * _SQRT5 / 25.0
    support_radius = _SQRT5

    def density(self, u):
        u = np.asarray(u, dtype=float)
        # the maximum also absorbs roundoff of 1 - u^2/5 at exactly +-sqrt(5)
        return np.maximum(3.0 / (4.0 * _SQRT5) * (1.0 - u * u / 5.0), 0.0)

    def cdf(self, u):
        u = np.asarray(u, dtype=float)
        core = 0.5 + 3.0 / (4.0 * _SQRT5) * (u - u**3 / 15.0)
        return np.where(u < -_SQRT5, 0.0, np.where(u > _SQRT5, 1.0, core))


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


def _check_bandwidth(h: float) -> float:
    if not (isinstance(h, (int, float)) and math.isfinite(h) and h > 0.0):
        raise ValueError(f"bandwidth must be finite and > 0, got {h!r}")
    return float(h)


def kde(sample: Sample, h: float, t):
    """(f_hat, F_hat) at ``t``: (nh)^-1 sum k(u_i) and n^-1 sum K(u_i), u_i = (t - T_i)/h.

    K is the kernel antiderivative, so f_hat integrates to one over the real
    line. A scalar ``t`` gives two floats.
    """
    h = _check_bandwidth(h)
    ta = np.asarray(t, dtype=float)
    u = (ta[..., None] - sample.values) / h
    f = EPANECHNIKOV.density(u).mean(axis=-1) / h
    F = EPANECHNIKOV.cdf(u).mean(axis=-1)
    return (float(f), float(F)) if ta.ndim == 0 else (f, F)


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
    trimmed at each end). An explicit grid must already lie strictly inside
    that interval.
    """

    h: float
    alpha: float
    grid_size: int = 512
    grid: np.ndarray | None = None

    def __post_init__(self):
        _check_bandwidth(self.h)
        if not (isinstance(self.alpha, (int, float)) and 0.0 < self.alpha < 0.5):
            raise ValueError(f"alpha must lie in (0, 0.5), got {self.alpha!r}")
        if self.grid is None and self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if self.grid is not None:
            arr = np.asarray(self.grid, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError("explicit grid must be a non-empty 1-d sequence")
            object.__setattr__(self, "grid", arr)

    def resolve_grid(self, sample: Sample) -> np.ndarray:
        lo = float(sample.values[0])
        hi = float(sample.values[-2])
        if self.grid is not None:
            # increasing and interior at both ends puts every point inside; NaN fails both
            grid = self.grid
            if not (np.all(np.diff(grid) > 0.0) and lo < grid[0] and grid[-1] < hi):
                raise ValueError(
                    f"grid must be strictly increasing and lie strictly inside ({lo}, {hi}) "
                    "for this sample"
                )
            return grid
        return np.linspace(lo, hi, self.grid_size + 2)[1:-1]


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

    @property
    def grid(self) -> np.ndarray:
        return self.band.grid


def defensibility_test(
    sample: Sample,
    config: BandConfig,
    baseline: HazardSpec,
    c: float,
) -> DefensibilityReport:
    """Check |r - r_hat| <= halfwidth - c over the grid; report the margin.

    Requires the baseline to dominate the amplitude (r > c) on the same
    grid, mirroring the model's own admissibility condition.
    """
    if not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be finite and > 0, got {c!r}")
    band = confidence_band(sample, config)
    dominance = validate_dominance(baseline, c, band.grid)
    if not dominance.ok:
        raise ValueError(
            f"baseline hazard fails r(t) > c at t = {dominance.violating_t:.6g}"
        )
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
        c=float(c),
        max_admissible_c=max_admissible,
        margin=margin,
        violating_t=violating_t,
        band=band,
        baseline_rate=baseline_rate,
    )
