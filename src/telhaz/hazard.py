"""Baseline hazard-rate specifications with exact cumulative forms.

Every variant exposes the instantaneous rate r(t), its exact antiderivative
R(t), and the implied lifetime distribution F(t) = 1 - exp(-R(t)) on the
support [0, support_end). Cumulative hazards are closed forms, never
quadrature; a quadrature cross-check lives in the tests only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np


class HazardSpec:
    """Base interface: positive rate on [0, support_end) with exact R(t).

    A family supplies ``_rate`` and ``_cumulative`` on a checked time array.
    """

    support_end: float = math.inf

    def __post_init__(self):
        if not self.support_end > 0.0:  # NaN fails the comparison too
            raise ValueError(f"support_end must be > 0 (inf by default), got {self.support_end!r}")

    def rate(self, t):
        """Instantaneous hazard r(t); scalar or array input."""
        arr = _times(t, self.support_end)
        out = self._rate(arr)
        return float(out) if arr.ndim == 0 else out

    def cumulative(self, t):
        """Exact cumulative hazard R(t) = integral of r over [0, t]."""
        arr = _times(t, self.support_end)
        out = self._cumulative(arr)
        return float(out) if arr.ndim == 0 else out

    def critical_points(self) -> tuple[float, ...]:
        """Interior points where r may attain extrema."""
        return ()

    def min_slack(self, c: float, lo: float, hi: float) -> tuple[float, float]:
        """Infimum of r - c over (lo, hi] and the t where it is reached or approached.

        Dominance r > c holds on the interval iff the slack is > 0. Exact for
        the closed-form families; a custom pair is checked on a grid.
        """
        lo = float(_times(lo, self.support_end, name="lo"))
        hi = float(_times(hi, self.support_end, name="hi"))
        if not lo < hi:
            raise ValueError(f"need lo < hi, got ({lo!r}, {hi!r})")
        pts, rates = self._slack_candidates(lo, hi)
        i = int(np.argmin(rates))
        return float(rates[i] - c), float(pts[i])

    def _slack_candidates(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        # r is monotone between critical points, so its infimum over (lo, hi]
        # is reached at one of them or approached at lo
        pts = np.array([lo, *(p for p in self.critical_points() if lo < p < hi), hi])
        return pts, self._rate(pts)

    def cdf(self, t):
        """Lifetime distribution function 1 - exp(-R(t))."""
        out = -np.expm1(-np.asarray(self.cumulative(t), dtype=float))
        return float(out) if np.ndim(t) == 0 else out

    def survival(self, t):
        """Survival function exp(-R(t)); underflows smoothly to 0.0."""
        out = np.exp(-np.asarray(self.cumulative(t), dtype=float))
        return float(out) if np.ndim(t) == 0 else out


def _positive(name: str, value, allow_zero: bool = False) -> float:
    """``value`` as a float: a real number but not a bool, finite, > 0 (>= 0 with allow_zero)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and (value > 0.0 or (allow_zero and value == 0.0))):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")
    return float(value)


def _count(name: str, value, minimum: int) -> int:
    """``value`` as an int: an integer but not a bool, >= ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _times(t, end: float = math.inf, name: str = "t") -> np.ndarray:
    """``t`` as a float array of reals, not bools, in [0, end); errors quote the first bad value."""
    arr = np.asarray(t)
    if arr.dtype.kind not in "iuf":  # bool, str, object, complex, ...
        for value in [*arr.ravel().tolist(), t]:  # t last: an object array fails on itself
            _positive(name, value, allow_zero=True)
    arr = arr.astype(float, copy=False)
    inside = (arr >= 0.0) & (arr < end)  # NaN fails both
    if not np.all(inside):
        raise ValueError(f"{name} must lie in [0, {end}), got {float(arr[~inside][0])!r}")
    return arr


def _interior(points, lo: float, hi: float, label: str) -> np.ndarray:
    """``points`` as floats if strictly increasing inside the open (lo, hi); label opens errors."""
    arr = np.asarray(points, dtype=float)
    # increasing and interior at both ends puts every point inside; NaN fails both
    if not (np.all(np.diff(arr) > 0.0) and lo < arr[0] and arr[-1] < hi):
        raise ValueError(f"{label}: {arr.size} points must increase strictly inside ({lo}, {hi})")
    return arr


@dataclass(frozen=True)
class ConstantHazard(HazardSpec):
    """r(t) = rate0, the exponential-lifetime baseline."""

    rate0: float
    support_end: float = math.inf

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "rate0", _positive("rate0", self.rate0))

    def _rate(self, arr):
        return np.full_like(arr, self.rate0)

    def _cumulative(self, arr):
        return self.rate0 * arr


@dataclass(frozen=True)
class PolynomialHazard(HazardSpec):
    """r(t) = alpha * t * (t - 1)^2 + c_ref + beta.

    A non-monotone rate with interior stationary points at t = 1/3 and
    t = 1; its minimum over t >= 0 is c_ref + beta, attained at 0 and 1.
    """

    alpha: float
    beta: float
    c_ref: float
    support_end: float = math.inf

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "alpha", _positive("alpha", self.alpha))
        object.__setattr__(self, "beta", _positive("beta", self.beta))
        object.__setattr__(self, "c_ref", _positive("c_ref", self.c_ref, allow_zero=True))

    def _rate(self, arr):
        return self.alpha * arr * (arr - 1.0) ** 2 + self.c_ref + self.beta

    def _cumulative(self, arr):
        poly = arr**4 / 4.0 - 2.0 * arr**3 / 3.0 + arr**2 / 2.0
        return self.alpha * poly + (self.c_ref + self.beta) * arr

    def critical_points(self) -> tuple[float, ...]:
        return (1.0 / 3.0, 1.0)


@dataclass(frozen=True)
class PiecewiseLinearHazard(HazardSpec):
    """Contiguous linear pieces r(t) = slope * t + intercept.

    ``segments`` is a sequence of (t_start, slope, intercept) with the first
    start at 0 and strictly increasing starts. The rate must be positive
    everywhere except that r(0) = 0 is tolerated (some published baselines
    start at zero); continuity at the breakpoints is not required.
    """

    segments: tuple[tuple[float, float, float], ...]
    support_end: float = math.inf

    def __post_init__(self):
        super().__post_init__()
        segs = tuple(
            (float(s), float(m), float(q)) for s, m, q in self.segments
        )
        if not segs:
            raise ValueError("segments must be non-empty")
        if segs[0][0] != 0.0:
            raise ValueError("first segment must start at t = 0")
        starts = [s for s, _, _ in segs]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment starts must be strictly increasing")
        if any(not all(map(math.isfinite, seg)) for seg in segs):
            raise ValueError("segment parameters must be finite")
        object.__setattr__(self, "segments", segs)
        ends = starts[1:] + [self.support_end]
        for (start, slope, intercept), end in zip(segs, ends):
            at_start = slope * start + intercept
            if at_start < 0.0 or (at_start == 0.0 and start > 0.0):
                raise ValueError(f"rate is not positive at t = {start}")
            probe = end if math.isfinite(end) else max(start + 1.0, 2.0 * start)
            if slope * probe + intercept <= 0.0:
                raise ValueError(f"rate is not positive on the segment from t = {start}")
            if not math.isfinite(end) and slope < 0.0:
                raise ValueError("last segment must have slope >= 0 on an infinite support")

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        starts = np.array([s for s, _, _ in self.segments])
        slopes = np.array([m for _, m, _ in self.segments])
        intercepts = np.array([q for _, _, q in self.segments])
        # cumulative hazard accumulated up to the start of each segment
        offsets = np.zeros(len(self.segments))
        for i in range(1, len(self.segments)):
            s0, m, q = self.segments[i - 1]
            s1 = self.segments[i][0]
            offsets[i] = offsets[i - 1] + 0.5 * m * (s1**2 - s0**2) + q * (s1 - s0)
        return starts, slopes, intercepts, offsets

    def _segment_index(self, arr: np.ndarray, starts: np.ndarray) -> np.ndarray:
        # breakpoints belong to the segment on their left: pieces are
        # [0, s_1], (s_1, s_2], ... which matches published baselines
        return np.clip(np.searchsorted(starts, arr, side="left") - 1, 0, None)

    def _rate(self, arr):
        starts, slopes, intercepts, _ = self._arrays
        idx = self._segment_index(arr, starts)
        return slopes[idx] * arr + intercepts[idx]

    def _cumulative(self, arr):
        starts, slopes, intercepts, offsets = self._arrays
        idx = self._segment_index(arr, starts)
        s0 = starts[idx]
        return offsets[idx] + 0.5 * slopes[idx] * (arr**2 - s0**2) + intercepts[idx] * (
            arr - s0
        )

    def critical_points(self) -> tuple[float, ...]:
        return tuple(s for s, _, _ in self.segments if s > 0.0)

    def _slack_candidates(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        # each piece's own line at both ends of its part of (lo, hi], so a
        # drop just right of a breakpoint counts though r(breakpoint) does not
        starts, slopes, intercepts, _ = self._arrays
        left = np.maximum(starts, lo)
        right = np.minimum(np.append(starts[1:], np.inf), hi)
        keep = left < right
        pts = np.concatenate([left[keep], right[keep]])
        return pts, np.tile(slopes[keep], 2) * pts + np.tile(intercepts[keep], 2)


@dataclass(frozen=True)
class CustomHazard(HazardSpec):
    """Caller-supplied closed-form pair (r, R); both must be vectorized.

    No differentiation or integration happens here: supplying an exact
    antiderivative is the contract, which keeps the hot path quadrature-free.
    """

    rate_fn: Callable
    cumulative_fn: Callable
    support_end: float = math.inf
    interior_points: tuple[float, ...] = field(default=())

    def _rate(self, arr):
        return np.asarray(self.rate_fn(arr), dtype=float)

    def _cumulative(self, arr):
        return np.asarray(self.cumulative_fn(arr), dtype=float)

    def critical_points(self) -> tuple[float, ...]:
        return self.interior_points

    def _slack_candidates(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        # nothing is known about r between points: 2048 uniform points past lo
        # plus the declared interior points, so a dip between them goes unseen
        pts = np.linspace(lo, hi, 2049)[1:]
        pts = np.union1d(pts, [p for p in self.interior_points if lo < p < hi])
        return pts, self._rate(pts)


def time_horizon(spec: HazardSpec) -> float:
    """Smallest convenient T with survival(T) <= 1e-6.

    Returns support_end for finite supports. For infinite supports the
    cumulative hazard is bracketed by doubling and then bisected.
    """
    if math.isfinite(spec.support_end):
        return spec.support_end
    target = -math.log(1e-6)
    hi = 1.0
    for _ in range(80):
        if spec.cumulative(hi) >= target:
            break
        hi *= 2.0
    else:
        raise ValueError("cumulative hazard grows too slowly to reach the 1e-6 tail")
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if spec.cumulative(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def parse_hazard_config(text: str) -> HazardSpec:
    """Build a hazard spec from plain key=value text.

    Recognized kinds and their keys::

        kind = constant      rate = 0.0125
        kind = polynomial    alpha = 15  beta = 0.001  c_ref = 1
        kind = piecewise     segments = 0:3.5e-6:0; 650:-4.07e-6:0.0049; ...

    ``support_end`` is optional everywhere (default: inf). The lines follow
    :func:`_config_entries`.
    """
    entries = _config_entries(text)
    kind = entries.pop("kind", None)
    if kind is None:
        raise ValueError("hazard config must set 'kind'")

    def number(key: str, value: str) -> float:
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"{key} must be a number, got {value!r}") from None

    def need(key: str) -> str:
        if key not in entries:
            raise ValueError(f"hazard kind {kind!r} requires key {key!r}")
        return entries.pop(key)

    support = number("support_end", entries.pop("support_end", "inf"))
    kind = kind.lower()
    if kind == "constant":
        spec: HazardSpec = ConstantHazard(number("rate", need("rate")), support_end=support)
    elif kind == "polynomial":
        coefficients = (number(key, need(key)) for key in ("alpha", "beta", "c_ref"))
        spec = PolynomialHazard(*coefficients, support_end=support)
    elif kind == "piecewise":
        segments = []
        for chunk in need("segments").split(";"):
            parts = chunk.strip().split(":")
            bad = ValueError(f"bad segment {chunk.strip()!r}; expected start:slope:intercept")
            if len(parts) != 3:
                raise bad
            try:
                segments.append(tuple(number("segments", p) for p in parts))
            except ValueError:
                raise bad from None
        spec = PiecewiseLinearHazard(tuple(segments), support_end=support)
    else:
        raise ValueError(f"unknown hazard kind {kind!r}")
    if entries:
        raise ValueError(f"unused hazard config keys: {sorted(entries)}")
    return spec


def _config_entries(text: str) -> dict[str, str]:
    """``key = value`` lines as a dict: blank and '#' lines skipped, keys lower-cased and unique."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in entries:
            raise ValueError(f"line {lineno}: repeated key {key!r}")
        entries[key] = value.strip()
    return entries


def _read_file(path, parse):
    """``parse`` applied to the text of the file at ``path``; its errors start with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_hazard_config(path) -> HazardSpec:
    return _read_file(path, parse_hazard_config)
