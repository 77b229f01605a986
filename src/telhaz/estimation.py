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
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .hazard import HazardSpec, _alpha, _count, _interior_grid, _not_nan, _positive, _reals, _refuse

_SQRT5 = math.sqrt(5.0)
_TAIL_EPS = 1e-12
# pairs (grid point, observation) evaluated at once by kde; bounds its memory
_BLOCK = 1 << 18
# pairs a kde block may always evaluate, past the sum of its rows' own windows, so
# that rows with small windows share one block and its fixed numpy cost. kde on
# 1e5 lifetimes and the 512-point band grid at h = 0.02 made 131 blocks in 54 ms
# with it, against 436 in 61 ms with no floor and 59 in 57 ms at 2^14; melanoma_46
# at h = 6 made 3 in 0.73 ms, against 62 in 2.8 ms (medians of 6, 2-vCPU host)
_FLOOR = 1 << 12


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


@dataclass(frozen=True, eq=False)
class Sample:
    """Positive lifetimes in any order, real numbers but not bools or strings; at least three.

    ``values`` is a private copy, sorted and read-only. The checks build only
    boolean temporaries and the sort runs in place, so the copy is the one
    full-size array. Samples compare and hash by identity.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(_reals("sample values", self.values), ndmin=1)
        if arr.ndim != 1 or arr.size < 3:
            raise ValueError(f"sample needs at least 3 values, got {arr.size}")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("sample values must be finite and > 0")
        arr.sort()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)


def kde(sample: Sample, h: float, t):
    """(f_hat, F_hat) at ``t``: (nh)^-1 sum k(u_i) and n^-1 sum K(u_i), u_i = (t - T_i)/h.

    K is the kernel antiderivative, so f_hat integrates to one over the real line.
    ``t`` is a real number, giving two floats, or an array of them; NaN, a bool or a
    string in ``t`` is refused by name, and so is a bandwidth so small that f_hat
    overflows, by its least t. Each point's window is the slice of the sorted
    sample its kernel can reach (see ``_windows``), a proven superset of its mask.
    Off the window every term is k = 0 and K = 1 (left) or 0 (right), exactly, so
    each row sum is replayed from the window's neighbourhood alone and matches the
    whole matrix, bit for bit: numpy sums a row by a fixed pairwise tree, so each
    row is padded only to the smallest node of that tree that holds its window, and
    the constant sums of the nodes outside are added exactly as the tree adds them
    (see ``_row_sums``). The grid is walked in blocks of consecutive points (see
    ``_plan``) that share one window, the union of their own; since any superset of
    a row's mask gives the same sum, a row's bits do not depend on which rows share
    its block. A block's padded node holds at most ``_BLOCK`` pairs unless it is one
    grid point, so memory is O(n) whatever the grid size.
    """
    h = _positive("bandwidth", h)
    ta = _not_nan("t", t)
    flat = ta.reshape(-1)
    values = sample.values
    n = sample.n
    f = np.empty_like(flat)
    F = np.empty_like(flat)
    with np.errstate(over="ignore"):  # an overflowed u is +-inf, outside on its own side
        for start, stop, a, b in _plan(*_windows(values, flat, h), n):
            u = (flat[start:stop, None] - values[a:b]) / h
            # k and K live only in this call, not on through the next block's evaluate
            k_sum, K_sum = _row_sums(*EPANECHNIKOV.evaluate(u), n, a)
            f[start:stop] = k_sum / n / h
            F[start:stop] = K_sum / n
    _refuse(np.isinf(f), flat, _too_small(h, "f_hat"))
    if ta.ndim == 0:
        return float(f[0]), float(F[0])
    return f.reshape(ta.shape), F.reshape(ta.shape)


def _windows(values, t, h: float):
    """[lo, hi) per point of ``t``: the slice of the sorted ``values`` its kernel can reach.

    reach >= rho*h exactly (the product rounded, then one double up, also for
    a subnormal h), rho the double above the support radius. A T below
    t - reach is <= t - reach exactly, since the bound is the double nearest
    to it, so t - T >= reach in any rounding and u >= rho: past the mask,
    K = 1. T above t + reach mirrors it, K = 0; k = 0 on both sides. (An
    infinite reach makes the bound inf - inf NaN, which sorts past every T:
    all left of t = +inf, the whole row for t = -inf, both as the mask.)
    """
    rho = math.nextafter(EPANECHNIKOV.support_radius, math.inf)
    reach = math.nextafter(rho * h, math.inf)
    with np.errstate(over="ignore", invalid="ignore"):  # t +- reach may pass the doubles
        return (np.searchsorted(values, t - reach, "left"),
                np.searchsorted(values, t + reach, "right"))


def _plan(lo, hi, n: int):
    """Yield blocks (start, stop, a, b) of consecutive points, [a, b) the union of their windows.

    A block grows over the next point while (1) rows * (b - a) stays within
    the larger of its rows' own windows summed and ``_FLOOR``, and (2) rows *
    (length of the ``_row_sums`` node that holds [a, b)) stays within
    ``_BLOCK``. A block always holds at least one point.
    """
    lo, hi = lo.tolist(), hi.tolist()
    size, start = len(lo), 0
    while start < size:
        a, b = lo[start], hi[start]
        own, node, stop = b - a, None, start + 1
        while stop < size:
            a2, b2 = lo[stop], hi[stop]
            own += b2 - a2
            # min, max and the bounds without builtin calls: this loop runs once per point
            a2, b2, rows = (a2 if a2 < a else a), (b2 if b2 > b else b), stop + 1 - start
            if rows * (b2 - a2) > (own if own > _FLOOR else _FLOOR):
                break
            if rows * n > _BLOCK:
                # a wider window's node is the same node or an ancestor: find it only past the old one
                if node is None or a2 < node[0] or b2 > node[0] + node[1]:
                    node = _node(n, a2, b2)[:2]
                if rows * node[1] > _BLOCK:
                    break
            a, b, stop = a2, b2, stop + 1
        yield start, stop, a, b
        start = stop


def _node(n: int, a: int, b: int):
    """(lo, m, left): the smallest node (lo, m) of numpy's pairwise tree over an
    n-long row that holds [a, b), and the lengths of the left siblings passed on
    the way down from (0, n).

    numpy sums a contiguous float64 row up to 128 elements flat (eight
    accumulators), and a longer node split at half = m//2 - (m//2) % 8 into
    two children whose sums are added.
    """
    lo, m, left = 0, n, []
    while m > 128:
        half = m // 2 - (m // 2) % 8
        if b <= lo + half:
            m = half
        elif a >= lo + half:
            left.append(half)
            lo, m = lo + half, m - half
        else:
            break
    return lo, m, left


def _row_sums(k, K, n: int, a: int):
    """numpy's sums of the n-long rows that hold ``k`` and ``K`` on [a, b), bit for bit.

    Left of a the rows hold k = 0 and K = 1, right of b both are 0. A node's
    sum depends only on its own elements and length, so the rows are padded
    only to the smallest node (lo, m) that holds [a, b) (see ``_node``). Every
    sibling passed on the way is exact: its k, and K right of the window, sum
    to 0.0, which adds nothing; K left of it sums to its length, an integer,
    added to the node's sum deepest first, as the tree adds it.
    """
    b = a + k.shape[-1]
    lo, m, left = _node(n, a, b)
    if b - a < m:
        k_node = np.zeros(k.shape[:-1] + (m,))
        K_node = np.zeros_like(k_node)
        K_node[..., : a - lo] = 1.0
        k_node[..., a - lo : b - lo], K_node[..., a - lo : b - lo] = k, K
        k, K = k_node, K_node
    K_sum = K.sum(axis=-1)
    for length in reversed(left):
        K_sum += float(length)
    return k.sum(axis=-1), K_sum


def hazard_estimate(sample: Sample, h: float, t):
    """Estimated hazard f_hat / (1 - F_hat) at ``t``, checked as by ``kde``; refuses the
    unstable upper tail and an overflow, naming the least such t."""
    f, F = kde(sample, h, t)
    if np.any(np.asarray(F) > 1.0 - _TAIL_EPS):
        raise UpperTailError(
            "estimated CDF is within 1e-12 of 1; the hazard ratio is unstable there"
        )
    with np.errstate(over="ignore"):  # an overflowed ratio is refused below
        rate = f / (1.0 - F)
    _refuse(np.isinf(rate), t, _too_small(h, "the hazard estimate"))
    return rate


def _too_small(h: float, what: str):
    """The refusal of a bandwidth so small that ``what`` overflows, at the time it is given."""
    return lambda at: f"bandwidth {h!r} is too small: {what} overflows at t = {at:.6g}"


@dataclass(frozen=True)
class BandConfig:
    """Bandwidth, tail level and evaluation grid size for the confidence band.

    Evaluation uses ``grid_size`` uniform points strictly between the 1st and
    (n-1)-th order statistics (one grid step trimmed at each end).
    """

    h: float
    alpha: float
    grid_size: int = 512

    def __post_init__(self):
        object.__setattr__(self, "h", _positive("bandwidth", self.h))
        object.__setattr__(self, "alpha", _alpha("alpha", self.alpha))
        object.__setattr__(self, "grid_size", _count("grid_size", self.grid_size, 2))

    def resolve_grid(self, sample: Sample) -> np.ndarray:
        lo = float(sample.values[0])
        hi = float(sample.values[-2])
        return _interior_grid(lo, hi, self.grid_size, "grid for this sample")


class ConfidenceBand(NamedTuple):
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rate = np.where(usable, f / (1.0 - F), np.nan)
        half = np.where(
            usable,
            np.sqrt(EPANECHNIKOV.l2_constant / (sample.n * config.h * f)) * rate * z,
            np.nan,
        )
        upper = rate + half
    _refuse(np.isinf(upper), grid, _too_small(config.h, "the band"))  # NaN where not usable
    return ConfidenceBand(
        grid=grid,
        rate=rate,
        lower=rate - half,
        upper=upper,
        density=f,
        cdf=F,
        usable=usable,
    )


class DefensibilityReport(NamedTuple):
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

    Requires the baseline to dominate the amplitude (r > c) on (grid[0], grid[-1]],
    mirroring the model's own admissibility condition, and to be finite on the grid.
    """
    c = _positive("c", c)
    band = confidence_band(sample, config)
    dominance = baseline.min_slack(c, float(band.grid[0]), float(band.grid[-1]))
    if not dominance.holds:
        raise ValueError(f"baseline hazard fails r(t) > c at t = {dominance.t:.6g}")
    if not np.any(band.usable):
        raise ValueError("no usable grid points: density estimate vanishes everywhere")
    baseline_rate = np.asarray(baseline.rate(band.grid), dtype=float)
    overflows = np.isinf(baseline_rate)
    _refuse(overflows, band.grid, lambda at: f"baseline hazard overflows at t = {at:.6g}")
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
