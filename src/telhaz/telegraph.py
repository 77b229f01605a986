"""Two-state alternating velocity process and the law of its time integral.

The velocity flips between +c and -c at the jump times of a Poisson process
with rate ``lam``; the starting sign is a fair coin flip. Its running
integral W(t) is piecewise linear, confined to [-ct, ct], and carries an
atom of mass exp(-lam*t)/2 at each endpoint plus a smooth Bessel-type
density in between. Everything here is either an exact simulation or a
closed form; no time discretization or quadrature is used anywhere.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .hazard import _count, _finite, _not_nan, _positive, _reals, _refuse, _times
from .special import scaled_bessel

# Poisson mass the W(t) CDF may leave out of its mixture over switch counts.
_POISSON_TAIL = 1e-16
# (point, k) pairs w_cdf evaluates at once, or one row of terms if more.
_CDF_BLOCK = 1 << 16
# Points the Bessel density evaluates at once.
_DENSITY_BLOCK = 1 << 14
# Exponential gaps sample_paths draws at once per path, and the most switches it expects.
_GAP_BLOCK = 1 << 16
_MAX_SWITCHES = 2**30
# Gaps plus grid points per path, summed over the batch of paths sample_paths walks at once.
_BATCH_CELLS = 1 << 14
# Below this lam * t, w_mean_var sums a series where its closed form cancels.
_VARIANCE_SERIES_BELOW = 0.5


@dataclass(frozen=True)
class TelegraphParams:
    """Noise amplitude ``c`` and Poisson switching rate ``lam`` (both > 0)."""

    c: float
    lam: float

    def __post_init__(self):
        for name in ("c", "lam"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))


def _reach(params: TelegraphParams, t, name: str = "t"):
    """c * t, the bound of |W(t)|, in the shape of ``t`` (a float if 0-d); refused if inf."""
    times = np.asarray(t, dtype=float)
    # c * t grows with t: the largest t decides, and the error quotes the smallest refused
    if not math.isfinite(params.c * float(times.max(initial=0.0) if times.ndim else times)):
        with np.errstate(over="ignore"):  # the overflow is the refusal
            _refuse(np.isinf(params.c * times), times, lambda at: f"c = {params.c!r} up to "
                    f"{name} = {at!r} lets |W| reach c * {name} = inf; it must be finite")
    ct = params.c * times
    return float(ct) if ct.ndim == 0 else ct


def _expected_switches(params: TelegraphParams, horizon: float, name: str = "grid[-1]") -> float:
    """``lam * horizon``, the paths' and the CDF's budget: at most 2^30, and c * horizon finite."""
    horizon = float(horizon)
    expected = params.lam * horizon
    if expected > _MAX_SWITCHES:
        raise ValueError(
            f"lam = {params.lam!r} up to {name} = {horizon!r} expects {expected!r} "
            "switches; at most 2**30 are supported"
        )
    _reach(params, horizon, name)
    return expected


def sample_paths(params: TelegraphParams, grid, seeds):
    """W at the nondecreasing times ``grid`` along one exact trajectory per seed.

    Every refusal of ``grid`` is raised by the call, before any path is drawn, also for no
    seeds. Path i comes from ``numpy.random.default_rng(seeds[i])``: a fair sign coin, then
    exponential gaps in blocks of at most 2^16, each integrated onto the grid points it reaches.
    The paths are drawn a batch at a time, when the first of the batch is read, and yielded one
    row each. A batch spans at most 2^14 gaps and grid points, or one path, so memory is
    O(grid size + 2^16) whatever ``lam * grid[-1]`` (at most 2^30). A bad seed is refused by
    numpy once the paths before it have been read. The signed segment lengths are summed left
    to right: each value is the one a walk over the same switches gives, to the last bit.
    """
    grid = _times(grid, name="grid")
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d sequence")
    if not (grid[1:] >= grid[:-1]).all():
        raise ValueError("grid must be nondecreasing")
    block = _gap_block(_expected_switches(params, grid[-1]))
    rows = max(1, _BATCH_CELLS // (block + grid.size))
    return _walk(params, grid, iter(seeds), block, rows)


def _gap_block(expected: float) -> int:
    """Gaps a path draws at once: all it likely needs, within [8, 2^16]."""
    return min(_GAP_BLOCK, max(8, int(expected + 6.0 * math.sqrt(expected) + 8.0)))


def _walk(params: TelegraphParams, grid: np.ndarray, seeds, block: int, rows: int):
    """The paths of :func:`sample_paths`: ``rows`` seeds a batch, each batch walked, then read."""
    flips = np.ones(block + 1)
    flips[1::2] = -1.0
    while True:
        rngs, refused = [], None
        for seed in itertools.islice(seeds, rows):
            try:
                rngs.append(np.random.default_rng(seed))
            except Exception as error:  # raised once the paths before it are read
                refused = error
                break
        if rngs:
            yield from _walk_batch(params, grid, rngs, flips)
        if refused is not None:
            raise refused
        if len(rngs) < rows:
            return


def _walk_batch(params: TelegraphParams, grid: np.ndarray, rngs, flips) -> np.ndarray:
    """One row of W on ``grid`` per generator: its sign coin, then ``flips.size - 1`` gaps a round.

    Per row only the generator's draws, straight into the batch's array, and the search of
    the grid among the row's arrivals; the rest as 2-D arrays. Rows whose gaps end before the
    grid does draw more in the next round, which evaluates only the grid points from the
    first row's last one reached up to the last row's.
    """
    width = flips.size
    scale = 1.0 / params.lam
    out = np.empty((len(rngs), grid.size))
    sign = np.array([1.0 if rng.random() < 0.5 else -1.0 for rng in rngs])
    # per active row: the last switch, the integral up to it, the grid points reached
    start, reach = np.zeros(len(rngs)), np.zeros(len(rngs))
    done = np.zeros(len(rngs), dtype=np.intp)
    active = np.arange(len(rngs))
    # a tiny lam sends arrivals to inf (and inf - inf to nan past them); no grid time reaches one
    with np.errstate(over="ignore", invalid="ignore"):
        while active.size:
            starts = np.empty((active.size, width))
            starts[:, 0] = start
            arrivals = starts[:, 1:]  # each row's gaps, then their running sums from its start
            for r, row in zip(active, arrivals):
                rngs[r].standard_exponential(out=row)
            arrivals *= scale  # numpy's exponential(scale), bit for bit
            np.cumsum(arrivals, axis=1, out=arrivals)
            arrivals += start[:, None]
            signs = sign[:, None] * flips
            # integral up to each segment start, then the partial segment up to t
            steps = signs[:, :-1] * np.diff(starts, axis=1)
            reached = np.cumsum(np.concatenate((reach[:, None], steps), axis=1), axis=1)
            end = grid.searchsorted(arrivals[:, -1], side="right")
            lo, hi = int(done.min()), int(end.max())
            t = grid[lo:hi]
            k = np.array([row.searchsorted(t, side="left") for row in arrivals])
            k += np.arange(0, active.size * width, width)[:, None]  # into the flattened rows
            # c * (reached + sign * (t - start)) on each point's segment, in place
            values = starts.take(k)
            np.subtract(t, values, out=values)
            values *= signs.take(k)
            values += reached.take(k)
            values *= params.c
            if lo < done.max():  # a row keeps the points an earlier round gave it
                values = np.where(np.arange(lo, hi) >= done[:, None], values, out[active, lo:hi])
            out[active, lo:hi] = values
            more = end < grid.size
            active, done = active[more], end[more]
            start, reach, sign = arrivals[more, -1], reached[more, -1], signs[more, -1]
    return out


def sample_w(params: TelegraphParams, t: float, n_paths: int, seed: int) -> np.ndarray:
    """Vectorized draw of W(t) for ``n_paths`` independent trajectories.

    Given N ~ Poisson(lam t) switches, the N + 1 segment lengths are t times a
    flat Dirichlet vector, so W(t) = ct (2B - 1) with B ~ Beta(k, k) and
    k = ceil(N/2): for N = 2k, the starting side's Beta(k + 1, k) mirrored by
    the sign coin has that law, as [I_y(k+1, k) + I_y(k, k+1)]/2 = I_y(k, k)
    (DLMF §8.17(iv)). When N = 0, B is 0 or 1 by the coin. The draws match the
    last value of :func:`sample_paths` in law (the tests cross-check the two
    samplers), in O(n_paths) memory whatever ``lam * t``, up to the largest
    Poisson mean numpy draws from (about 9.2e18).
    """
    t = _positive("t", t)
    ct = _reach(params, t)
    n_paths = _count("n_paths", n_paths, 0)
    rng = np.random.default_rng(seed)
    try:
        k = (rng.poisson(params.lam * t, size=n_paths) + 1) // 2
    except ValueError:  # numpy's bare "lam value too large"
        raise ValueError(
            f"lam = {params.lam!r} at t = {t!r} expects {params.lam * t!r} switches, "
            "past the largest Poisson mean numpy draws from"
        ) from None
    b = np.where(rng.random(n_paths) < 0.5, 1.0, 0.0)
    switched = k > 0
    b[switched] = rng.beta(k[switched], k[switched])
    return ct * (2.0 * b - 1.0)


def w_atom_prob(params: TelegraphParams, t: float) -> float:
    """Probability mass sitting at each of the two endpoints +-c*t."""
    t = _positive("t", t, allow_zero=True)
    return 0.5 * math.exp(-params.lam * t)


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where that is not known."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bessel_density(params: TelegraphParams, t: float, x, spread):
    """The Bessel-type interior density that W(t) and X(t) share.

    The time derivative of I0 is expanded analytically into I1, and the
    whole bracket is evaluated in exponentially scaled form so that large
    ``lam * t`` never overflows:

        exp(z - lam t) * [lam I0e(z) + lam^2 t (I1(z)/z) e^{-z}] / (2c * jacobian)

    with z = (lam/c) sqrt(spread2), a negative spread2 from roundoff read as 0. The points ``x``
    (an array, giving a float if 0-d) are walked in blocks of 2^14, and ``spread(block)`` gives
    the block's (spread2, jacobian), so every temporary, the caller's spread included, is O(2^14)
    whatever the number of points. A block is evaluated in place with the operations of the
    whole-array expression ``(lam I0e + (lam^2 t) I1e/z) * exp(z - lam t) / (2c jacobian)`` in
    its order (a product or a sum is the same either way round): z is built in the block's slice
    of one output, the I0e row takes the bracket, and the slice then takes exp(z - lam t), the
    product and the quotient. Each value keeps the bits of a whole-array evaluation: the spread
    is elementwise, and a value of ``scaled_bessel`` depends only on its own argument, on either
    of its paths (see there). Where z or the density overflows, a ValueError names c, lam and t.

    With two or more blocks, and more than one CPU this process may run on, the caller walks the
    even blocks and one helper thread the odd ones; each writes only its own slices, so every
    value keeps its bits. At most two blocks are in flight, and a block drops its Bessel pair
    before the next one starts. numpy's error state is per thread, so each walker sets its own.
    The first error in either walker stops the other before its next block; the helper is joined
    before the call returns, and the error is raised in the caller.
    """
    c, lam = params.c, params.lam
    overflow = f"the density overflows at c = {c!r}, lam = {lam!r}, t = {t!r}"
    out = np.empty(x.shape)
    flat, points = out.reshape(-1), x.reshape(-1)
    errors = []  # what stopped a walker; the other stops before its next block

    def walk(starts):
        try:
            with np.errstate(all="ignore"):  # per thread; a non-finite z or result is reported
                for start in starts:
                    if errors:
                        return
                    block = slice(start, start + _DENSITY_BLOCK)
                    spread2, jacobian = spread(points[block])
                    z = np.maximum(spread2, 0.0, out=flat[block])
                    del spread2  # each temporary goes once used: two blocks share the bound
                    np.sqrt(z, out=z)
                    z *= lam / c
                    if not np.all(np.isfinite(z)):
                        raise ValueError(overflow)
                    bracket, i1e_over_z = scaled_bessel(z)
                    i1e_over_z *= lam * lam * t
                    bracket *= lam
                    bracket += i1e_over_z
                    del i1e_over_z
                    z -= lam * t
                    np.exp(z, out=z)
                    z *= bracket
                    del bracket
                    z /= 2.0 * c * jacobian
                    if not np.all(np.isfinite(z)):
                        raise ValueError(overflow)
        except BaseException as error:
            errors.append(error)

    starts = range(0, flat.size, _DENSITY_BLOCK)
    if len(starts) > 1 and _cpus() > 1:
        helper = threading.Thread(target=walk, args=(starts[1::2],))
        helper.start()
        try:
            walk(starts[::2])
        finally:
            helper.join()
    else:
        walk(starts)
    try:
        if errors:
            raise errors[0]
    finally:
        errors.clear()  # so the error's traceback does not hold itself, and the output, in a cycle
    return float(out) if x.ndim == 0 else out


def w_density(params: TelegraphParams, t: float, x):
    """Density of the continuous part of W(t) on the open interval (-ct, ct).

    The Bessel-type density at spread2 = c^2 t^2 - x^2, taken in factored form, with
    jacobian 1. ``x`` is a real number or an array of them; a bool or a string is refused by
    name. Where c*t rounds to 0 the interval is empty, and a ValueError names c and t.
    Past 2^14 points, on more than one CPU, the caller and one helper thread share the blocks,
    each with its own numpy error state, and the helper is joined before the call returns; the
    values keep their bits, and on 1e6 points the traced peak is ~1.19 times the output's bytes
    (see ``_bessel_density``).
    """
    t = _positive("t", t)
    ct = _reach(params, t)
    if ct == 0.0:  # no x fits inside: the support is empty in doubles
        raise ValueError(f"c = {params.c!r} at t = {t!r} gives c * t = 0.0: W(t) has no interior")
    arr = _reals("x", x)
    _refuse(~(np.abs(arr) < ct), arr,  # NaN fails too
            lambda at: "x must lie strictly inside (-c*t, c*t); the endpoints carry atoms")
    return _bessel_density(params, t, arr, lambda x: ((ct - x) * (ct + x), 1.0))


def _poisson_terms(mean: float) -> tuple[np.ndarray, np.ndarray]:
    """Counts n and Poisson(mean) weights, leaving out at most 1e-16 of the mass.

    The window mean -+ (10 sqrt(mean) + 40) misses less than 1e-21 of the mass
    (Bernstein's tail bound); each side is then cut where its tail mass
    reaches half the budget, which keeps O(sqrt(mean)) terms. Each weight cancels
    terms of size mean log(mean), so the kept ones are divided by their sum.
    """
    from scipy.special import gammaln, xlogy  # imported here: only the CDF needs scipy

    reach = 10.0 * math.sqrt(mean) + 40.0
    n = np.arange(max(0, math.floor(mean - reach)), math.ceil(mean + reach) + 1)
    weights = np.exp(xlogy(n, mean) - mean - gammaln(n + 1.0))
    below = np.cumsum(weights)
    above = np.cumsum(weights[::-1])[::-1]
    keep = (below > 0.5 * _POISSON_TAIL) & (above > 0.5 * _POISSON_TAIL)
    return n[keep], weights[keep] / weights[keep].sum()


def w_cdf(params: TelegraphParams, t: float, w):
    """P{W(t) <= w} as a Poisson mixture of incomplete-beta laws.

    Given N switches, W(t) = ct (2B - 1) with B ~ Beta(k, k), k = ceil(N/2)
    (see :func:`sample_w`), so with y = (w/ct + 1)/2

        P{W(t) <= w | N} = I_y(k, k),

    which is 1/2 on [-ct, ct) when N = 0: the lower endpoint atom. The counts
    2k - 1 and 2k share a law, so their Poisson weights are merged. ``w`` is a
    real number or an array of them; -inf and +inf give 0 and 1, and NaN, a
    bool or a string is refused by name. The (point, k) pairs are evaluated in
    blocks of whole rows, at most 2^16 pairs or one row, so memory beyond the
    O(sqrt(lam t)) terms does not grow with the number of points; each row is
    summed on its own, so a point's value does not depend on the others. The
    first call in a process imports ``scipy.special``.
    """
    t = _positive("t", t, allow_zero=True)
    arr = _not_nan("w", w)
    ct = _reach(params, t)
    mix = np.zeros(arr.size)
    if ct > 0.0:  # a c * t that rounds to 0 leaves all the mass at w = 0
        from scipy.special import betainc  # imported here: only the CDF needs scipy
        y = np.clip(0.5 * (arr.reshape(-1) / ct + 1.0), 0.0, 1.0)
        counts, weights = _poisson_terms(_expected_switches(params, t, "t"))
        half = (counts + 1) // 2  # the kept counts are contiguous: every k is present
        k = np.arange(half[0], half[-1] + 1)
        weights = np.bincount(half - half[0], weights)
        rows = max(1, _CDF_BLOCK // k.size)
        for start in range(0, y.size, rows):
            # betainc(0, 0, y) is NaN, which the k = 0 atom replaces
            block = np.where(k > 0, betainc(k, k, y[start:start + rows, None]), 0.5)
            # a row sum, not block @ weights: BLAS rounds a one-row product differently
            mix[start:start + rows] = (block * weights).sum(axis=-1)
    mix = np.minimum(mix.reshape(arr.shape), 1.0)
    out = np.where(arr >= ct, 1.0, np.where(arr < -ct, 0.0, mix))
    return float(out) if arr.ndim == 0 else out


def scaled_mgf(params: TelegraphParams, s: float, t, log_scale):
    """``exp(-log_scale) * E[exp(s W(t))]`` without overflowing intermediates.

    Splitting cosh/sinh into single exponentials keeps every term bounded
    whenever ``log_scale`` grows at least like the dominant exponent, which
    is exactly the situation in the perturbed-process moment formulas.
    ``s`` is any finite real, refused by name otherwise. ``t`` is a time or an array of them;
    ``log_scale`` is a real number or an array of them, not NaN, broadcast against ``t``.
    """
    s = _finite("s", s)
    omega = math.hypot(params.lam, s * params.c)
    ratio = params.lam / omega
    ta = _times(t)
    shift = _not_nan("log_scale", log_scale)
    try:
        np.broadcast_shapes(ta.shape, shift.shape)
    except ValueError:
        raise ValueError(f"log_scale {shift.shape} and t {ta.shape} do not broadcast") from None
    with np.errstate(over="ignore"):  # an exponent past the double range is -inf: exp gives 0
        grow = np.exp((omega - params.lam) * ta - shift)
        decay = np.exp(-(omega + params.lam) * ta - shift)
    out = 0.5 * (1.0 + ratio) * grow + 0.5 * (1.0 - ratio) * decay
    return float(out) if ta.ndim == 0 and shift.ndim == 0 else out


def mgf(params: TelegraphParams, s: float, t):
    """Moment generating function E[exp(s W(t))]; symmetric in s <-> -s.

    ``s`` and ``t`` are refused by name as in :func:`scaled_mgf`. Where E passes the double range,
    a ValueError names c, lam, s and the least such t.
    """
    out = scaled_mgf(params, s, t, 0.0)
    _refuse(~np.isfinite(out), t, lambda at: "E[exp(s W(t))] overflows at "
            f"c = {params.c!r}, lam = {params.lam!r}, s = {s!r}, t = {at!r}")
    return out


def w_mean_var(params: TelegraphParams, t: float) -> tuple[float, float]:
    """Mean (identically 0 by symmetry) and variance of W(t).

    The variance comes from the second s-derivative of the generating
    function at s = 0, reduced in closed form to
    ``(c/lam)^2 (x - (1 - e^{-2x})/2)`` with x = lam t. Below x = 1/2, where
    that difference cancels, it is (ct)^2 times the series of
    (x + expm1(-2x)/2) / x^2 = sum over m >= 0 of 2 (-2x)^m / (m + 2)!. Where
    (c/lam)^2 or x leaves the double range, the factors are carried as
    mantissas and powers of 2, so the variance comes out whenever it is a
    double. Where the variance passes the double range, a ValueError names
    c, lam and t.
    """
    t = _positive("t", t, allow_zero=True)
    c, lam = params.c, params.lam
    x = lam * t
    try:
        if x < _VARIANCE_SERIES_BELOW:
            # each term is under 1/(m + 3) of the last: 18 terms leave less than 1e-18
            terms = [1.0]
            for m in range(17):
                terms.append(terms[-1] * -2.0 * x / (m + 3))
            variance = c * t * (c * t * math.fsum(terms))
        elif x < math.inf and sys.float_info.min <= (c / lam) * (c / lam) < math.inf:
            variance = (c / lam) ** 2 * (x + 0.5 * math.expm1(-2.0 * x))
        else:
            # each factor as a mantissa times a power of 2, so that no intermediate leaves
            # the double range unless the variance does
            (mc, ec), (ml, el) = math.frexp(c), math.frexp(lam)
            if x < math.inf:
                mx, ex = math.frexp(x + 0.5 * math.expm1(-2.0 * x))
            else:  # lam * t past the double range, where x - 1/2 rounds to x
                mt, et = math.frexp(t)
                mx, ex = ml * mt, el + et
            variance = math.ldexp((mc / ml) ** 2 * mx, 2 * (ec - el) + ex)
    except OverflowError:  # the variance past the double range
        variance = math.inf
    if not math.isfinite(variance):
        raise ValueError(f"the variance of W(t) overflows at c = {c!r}, lam = {lam!r}, t = {t!r}")
    return 0.0, variance
