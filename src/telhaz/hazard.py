"""Baseline hazard-rate specifications with exact cumulative forms.

Every variant exposes the instantaneous rate r(t), its exact antiderivative
R(t), and the implied lifetime distribution F(t) = 1 - exp(-R(t)) on the
support [0, support_end). Cumulative hazards are closed forms, never
quadrature; a quadrature cross-check lives in the tests only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np


class Slack(NamedTuple):
    """Infimum of r - c over an interval and the t where it is reached or approached."""

    value: float
    t: float
    attained: bool  # False where the infimum is only a limit at an open end

    @property
    def holds(self) -> bool:
        """Dominance r > c on the interval: a slack > 0, or a slack of 0 only as a limit."""
        return self.value > 0.0 or (self.value == 0.0 and not self.attained)


class HazardSpec:
    """Base interface: positive rate on [0, support_end) with exact R(t).

    A family supplies ``_rate`` and ``_cumulative`` on a checked time array, and the
    ``turning_points`` of r: it is flat or strictly monotone between them; where it jumps at one,
    ``_rate_after`` reads it just to the right. r and R go inf on overflow, and ``_rate`` at
    support_end (inf on an infinite support) is the limit of r there.
    """

    support_end: float = math.inf
    turning_points: tuple[float, ...] = ()

    def __post_init__(self):
        end = _real("support_end", self.support_end)
        if not end > 0.0:  # NaN fails the comparison too
            raise ValueError(f"support_end must be > 0 (inf by default), got {self.support_end!r}")
        object.__setattr__(self, "support_end", end)

    def _evaluate(self, closed_form, t, what: str):
        """``closed_form`` at the checked times ``t``: a float for a scalar t, inf past the double
        range, and a NaN refused as ``what`` by its least t."""
        arr = _times(t, self.support_end)
        with np.errstate(over="ignore"):
            out = closed_form(arr)
        _refuse(np.isnan(out), arr, lambda at: f"{what} is NaN at t = {at!r}")
        return float(out) if arr.ndim == 0 else out

    def rate(self, t):
        """Instantaneous hazard r(t); scalar or array input. A NaN rate is refused by its t."""
        return self._evaluate(self._rate, t, "rate")

    def cumulative(self, t):
        """Exact cumulative hazard R(t) = integral of r over [0, t]. A NaN is refused by its t."""
        return self._evaluate(self._cumulative, t, "cumulative hazard")

    def min_slack(self, c: float, lo: float, hi: float) -> Slack:
        """Infimum of r - c over (lo, hi], exact for every family; ``hi = support_end`` is the rest.

        c is any finite real, of either sign, and lo and hi are single times, each refused by name.
        lo, the turning points and hi cut (lo, hi] into stretches of r flat or strictly monotone,
        so each is decided from its two ends. The left end is read just to its right, a limit
        unless r takes that value at a turning point; the right end is attained inside the
        support. Only a stretch whose ends read alike is probed, once, and the probe is
        attained. A tie at slack 0 goes to an attained point, any other to the first of the
        left ends, right ends and probes. So r(t) may round to c inside a stretch that rises
        off c, where dominance is reported to hold whatever the interval.
        """
        c, end = _finite("c", c), self.support_end
        lo = _real("lo", _times(lo, end, "lo")[()])  # [()] unwraps a 0-d array, not a 1-d one
        hi = _real("hi", _reals("hi", hi)[()])
        if hi != end:  # hi = support_end, inf on an infinite support, is the rest
            _times(hi, end, "hi")
        if not lo < hi:
            raise ValueError(f"need lo < hi, got ({lo!r}, {hi!r})")
        with np.errstate(all="ignore"):  # inf past the double range or at a pole; NaN refused
            pts, rates, attained = self._slack_candidates(lo, hi)
        _refuse(np.isnan(rates), pts, lambda at: f"rate is NaN at t = {at!r}")
        slack = rates - c
        zero = (slack == 0.0) & attained
        i = int(np.argmax(zero) if zero.any() and slack.min() == 0.0 else np.argmin(slack))
        return Slack(float(slack[i]), float(pts[i]), bool(attained[i]))

    def _slack_candidates(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the stretches between lo, the turning points and hi: their left ends, their right ends,
        # then their midpoints (one step past the start of an infinite one) where the two ends
        # read alike, r read at every end and midpoint in one call; a set, as np.unique would
        # import numpy.ma
        ends = sorted({lo, *(p for p in self.turning_points if lo < p < hi), hi})
        n = len(ends) - 1
        mids = [_past(a) if b == math.inf else a + 0.5 * (b - a) for a, b in zip(ends, ends[1:])]
        pts = np.array(ends + mids)
        rates = self._rate(pts)
        after, at = self._rate_after(pts[:n]), rates[1 : n + 1]
        pts, rates = np.append(pts[:n], pts[1:]), np.append(after, rates[1:])
        attained = pts < self.support_end
        attained[:n] = np.append(False, after[1:] == at[:-1])  # lo+ is a limit
        keep = np.append(np.ones(2 * n, bool), after == at)
        return pts[keep], rates[keep], attained[keep]

    def _rate_after(self, arr):
        return self._rate(arr)  # r is continuous unless a family says otherwise

    def cdf(self, t):
        """Lifetime distribution function 1 - exp(-R(t))."""
        return self._evaluate(lambda arr: -np.expm1(-self._cumulative(arr)), t, "cumulative hazard")

    def survival(self, t):
        """Survival function exp(-R(t)); underflows smoothly to 0.0."""
        return self._evaluate(lambda arr: np.exp(-self._cumulative(arr)), t, "cumulative hazard")


def _real(name: str, value) -> float:
    """``value`` as a float: a real number but not a bool, and not an int past the double range."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # its repr may be too long to quote
        raise ValueError(f"{name} must lie within the double range, got a number past it") from None


def _positive(name: str, value, allow_zero: bool = False) -> float:
    """``value`` as a float: a real number but not a bool, finite, > 0 (>= 0 with allow_zero)."""
    real = _real(name, value)
    if not (math.isfinite(real) and (real > 0.0 or (allow_zero and real == 0.0))):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")
    return real


def _finite(name: str, value) -> float:
    """``value`` as a float: a real number but not a bool, finite and of either sign."""
    try:
        if math.isfinite(real := _real(name, value)):
            return real
    except ValueError:  # a bool, not a real number, or an int past the double range
        pass
    past = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    got = "a number past the double range" if past else repr(value)  # its repr may be too long
    raise ValueError(f"{name} must be a finite real number, got {got}")


def _count(name: str, value, minimum: int) -> int:
    """``value`` as an int: an integer but not a bool, >= ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _alpha(name: str, value) -> float:
    """``value`` as a float: a real number but not a bool, in the open (0, 0.5)."""
    alpha = _positive(name, value)
    if not alpha < 0.5:
        raise ValueError(f"{name} must lie in (0, 0.5), got {value!r}")
    return alpha


def _reals(name: str, values) -> np.ndarray:
    """``values`` as a float array of real numbers, not bools; a float array is not copied."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nest of sequences
        message = f"{name} must be a real number or an array of them, got {values!r}"
        raise ValueError(message) from None
    if arr.dtype.kind not in "iuf":  # bool, str, object, complex, ...
        for value in arr.ravel().tolist():
            _real(name, value)
    elif isinstance(values, (list, tuple)):  # numpy reads [0.5, True] as floats: walk the nest
        rows = [values]  # the lists and tuples that hold a level; arrays are not walked
        while rows:  # one type read per element, so a flat list costs no Python loop
            kinds = set(map(type, chain.from_iterable(rows)))
            if bools := kinds & {bool, np.bool_}:
                _real(name, next(v for v in chain.from_iterable(rows) if type(v) in bools))
            if not any(issubclass(kind, (list, tuple)) for kind in kinds):
                break
            rows = [v for v in chain.from_iterable(rows) if isinstance(v, (list, tuple))]
    return arr.astype(float, copy=False)


def _not_nan(name: str, values) -> np.ndarray:
    """``values`` as ``_reals`` has them, with no NaN; +-inf pass, as evaluation points of a CDF."""
    arr = _reals(name, values)
    if np.isnan(arr).any():
        raise ValueError(f"{name} must not be NaN")
    return arr


def _refuse(bad, t, say) -> None:
    """Raise ``ValueError(say(at))`` where the mask ``bad`` holds, ``at`` the least such time of
    ``t`` broadcast against it (NaN only if all are); nothing is formatted unless one is refused."""
    if np.count_nonzero(bad):  # half the cost of .any() on a scalar mask
        times, bad = np.broadcast_arrays(np.asarray(t, dtype=float), bad)
        raise ValueError(say(float(np.fmin.reduce(times[bad]))))


def _times(t, end: float = math.inf, name: str = "t") -> np.ndarray:
    """``t`` as a float array of reals, not bools, in [0, end); errors quote the least bad value."""
    arr = _reals(name, t)
    outside = ~((arr >= 0.0) & (arr < end))  # NaN fails both
    _refuse(outside, arr, lambda at: f"{name} must lie in [0, {end}), got {at!r}")
    return arr


def _interior_grid(lo: float, hi: float, count: int, label: str) -> np.ndarray:
    """``count`` uniform points strictly inside the open (lo, hi), one step in from each end.

    Refused, with ``label`` opening the error, where double precision cannot
    keep them strictly increasing inside (lo, hi).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN points are refused below
        arr = np.linspace(lo, hi, count + 2)[1:-1]
        # increasing and interior at both ends puts every point inside; NaN fails both
        inside = np.all(np.diff(arr) > 0.0) and lo < arr[0] and arr[-1] < hi
    if not inside:
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
    turning_points = (1.0 / 3.0, 1.0)  # not a field: where r' = 0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "alpha", _positive("alpha", self.alpha))
        object.__setattr__(self, "beta", _positive("beta", self.beta))
        object.__setattr__(self, "c_ref", _positive("c_ref", self.c_ref, allow_zero=True))

    def _rate(self, arr):
        return self.alpha * arr * (arr - 1.0) ** 2 + self.c_ref + self.beta

    def _cumulative(self, arr):
        # past t ~ 5.6e102 both t**4 and t**3 overflow and their difference is
        # inf - inf; the true R(t) is far beyond the double range there
        with np.errstate(invalid="ignore"):
            poly = arr**4 / 4.0 - 2.0 * arr**3 / 3.0 + arr**2 / 2.0
            out = self.alpha * poly + (self.c_ref + self.beta) * arr
        return np.where(np.isnan(out), np.inf, out)


@dataclass(frozen=True)
class PiecewiseLinearHazard(HazardSpec):
    """Contiguous linear pieces r(t) = slope * t + intercept.

    ``segments`` is a sequence of (t_start, slope, intercept), read as one (k, 3) array of finite
    reals and refused by name otherwise, with the first start at 0 and strictly increasing starts.
    The rate must be positive everywhere except that r(0) = 0 is tolerated (some published
    baselines start at zero); continuity at the breakpoints is not required.
    """

    segments: tuple[tuple[float, float, float], ...]
    support_end: float = math.inf

    def __post_init__(self):
        super().__post_init__()
        segs = _reals("segments", self.segments)
        if not segs.size:
            raise ValueError("segments must be non-empty")
        if segs.ndim != 2 or segs.shape[1] != 3:
            raise ValueError(f"segments must be a (k, 3) array, got shape {segs.shape}")
        starts, slopes, intercepts = segs.T.copy()  # each contiguous, for searchsorted
        if starts[0] != 0.0:
            raise ValueError("first segment must start at t = 0")
        if np.any(starts[1:] <= starts[:-1]):  # a NaN start is left to the finite check
            raise ValueError("segment starts must be strictly increasing")
        if not np.isfinite(segs).all():
            raise ValueError("segment parameters must be finite")
        object.__setattr__(self, "segments", tuple(map(tuple, segs.tolist())))
        object.__setattr__(self, "turning_points", tuple(starts[1:].tolist()))  # not a field
        if not math.isfinite(self.support_end) and slopes[-1] < 0.0:
            raise ValueError("last segment must have slope >= 0 on an infinite support")
        with np.errstate(over="ignore", invalid="ignore"):  # r and R are inf past the double range
            pieces = _line_integral(starts[:-1], slopes[:-1], intercepts[:-1], starts[1:])
            offsets = np.cumsum(np.append(0.0, pieces))  # R up to the start of each segment
            object.__setattr__(self, "_arrays", (starts, slopes, intercepts, offsets))
            pts, rates, _ = self._slack_candidates(0.0, self.support_end)
        bad = (rates < 0.0) | ((rates == 0.0) & (pts > 0.0))
        _refuse(bad, pts, lambda at: f"rate is not positive at t = {at}")

    def _segment_index(self, arr: np.ndarray, starts: np.ndarray, side: str = "left") -> np.ndarray:
        # breakpoints belong to the segment on their left: pieces are
        # [0, s_1], (s_1, s_2], ... which matches published baselines
        return np.clip(np.searchsorted(starts, arr, side=side) - 1, 0, None)

    def _rate(self, arr, side: str = "left"):
        starts, slopes, intercepts, _ = self._arrays
        idx = self._segment_index(arr, starts, side)
        # a flat piece reads its intercept, also at t = inf, where 0 * inf is NaN
        return np.where(slopes[idx] == 0.0, intercepts[idx], slopes[idx] * arr + intercepts[idx])

    def _rate_after(self, arr):
        return self._rate(arr, "right")  # the piece that starts at a breakpoint

    def _cumulative(self, arr):
        starts, slopes, intercepts, offsets = self._arrays
        idx = self._segment_index(arr, starts)
        return offsets[idx] + _line_integral(starts[idx], slopes[idx], intercepts[idx], arr)


@dataclass(frozen=True)
class CustomHazard(HazardSpec):
    """Caller-supplied closed-form pair (r, R), each mapping a float array of times to its shape.

    No differentiation or integration happens here: the contract is an exact antiderivative,
    which keeps the hot path quadrature-free, and ``turning_points``, the times in
    (0, support_end) between which r is flat or strictly monotone, with ``rate_fn`` at
    support_end (inf on an infinite support) the limit of r there.
    """

    rate_fn: Callable
    cumulative_fn: Callable
    support_end: float = math.inf
    turning_points: tuple[float, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        for name in ("rate_fn", "cumulative_fn"):
            if not callable(getattr(self, name)):
                raise ValueError(f"{name} must be callable, got {getattr(self, name)!r}")
        points = _times(self.turning_points, self.support_end, "turning_points")
        if points.ndim != 1:
            got = self.turning_points
            raise ValueError(f"turning_points must be a sequence of times, got {got!r}")
        if 0.0 in points:
            raise ValueError(f"turning_points must lie in (0, {self.support_end}), got 0.0")
        object.__setattr__(self, "turning_points", tuple(points.tolist()))

    def _rate(self, arr):
        return _shaped("rate_fn", self.rate_fn(arr), arr)

    def _cumulative(self, arr):
        return _shaped("cumulative_fn", self.cumulative_fn(arr), arr)


def _shaped(name: str, out, arr: np.ndarray) -> np.ndarray:
    """A callable's ``out`` at the times ``arr`` as a float array, refused unless of their shape."""
    out = np.asarray(out, dtype=float)
    if out.shape != arr.shape:
        raise ValueError(f"{name} must return the shape of its times, {arr.shape}, got {out.shape}")
    return out


def _past(t: float) -> float:
    """A time past ``t``: t + 1, or the next double where t + 1 rounds to t."""
    return max(t + 1.0, math.nextafter(t, math.inf))


def _line_integral(start, slope, intercept, t):
    """Integral of slope * u + intercept over [start, t]: length times the mean of r, never NaN."""
    length = t - start
    return length * (slope * start + intercept + 0.5 * slope * length)


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
            try:  # three numbers, or a ValueError from float or from the unpacking
                start, slope, intercept = map(float, chunk.split(":"))
            except ValueError:
                expected = "expected start:slope:intercept"
                raise ValueError(f"bad segment {chunk.strip()!r}; {expected}") from None
            segments.append((start, slope, intercept))
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
