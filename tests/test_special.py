import math

import numpy as np
import pytest
from scipy import special

from telhaz.special import _REL_STOP, _asymptotic_scaled, _series, scaled_bessel

from conftest import asymptotic_oracle, series_oracle


def oracle_inputs(lo, hi, slowest):
    """Named argument arrays on [lo, hi]; ``slowest`` is the one whose terms shrink last."""
    rng = np.random.default_rng(12)
    spread = rng.uniform(lo, hi, 100_000)
    few = rng.uniform(lo, hi, 50)
    return {
        "unsorted": spread,
        "ascending": np.sort(spread),
        "descending": np.sort(spread)[::-1],
        "slowest_first": np.concatenate(([slowest], few)),
        "slowest_last": np.concatenate((few, [slowest])),
        "slowest_repeated": np.concatenate((few, [slowest] * 3, few, [slowest])),
        "all_lowest": np.full(17, lo),
        "empty": np.empty(0),
        "scalar": np.asarray(0.5 * (lo + hi)),
    }


SERIES_INPUTS = {**oracle_inputs(0.0, 30.0, 30.0), "smallest_subnormal": np.array([5e-324])}
ASYMPTOTIC_INPUTS = oracle_inputs(30.0, 600.0, 30.0)


def both_sides(name):
    """The series and asymptotic inputs of one name, shuffled together."""
    z = np.concatenate((SERIES_INPUTS[name], ASYMPTOTIC_INPUTS[name]))
    np.random.default_rng(3).shuffle(z)
    return z


# both sides of the cutoff in one call, then each side alone: all on the series side, 0-d too,
# the arguments skip the split by regime (ASYMPTOTIC_INPUTS' slowest, 30, is on the series side)
_PAST_CUTOFF = np.nextafter(30.0, math.inf)
PAIR_INPUTS = {
    **{name: both_sides(name) for name in ["unsorted", "slowest_first", "all_lowest", "empty"]},
    **{f"series-{name}": z for name, z in SERIES_INPUTS.items()},
    **{f"asymptotic-{name}": z
       for name, z in oracle_inputs(_PAST_CUTOFF, 600.0, _PAST_CUTOFF).items()},
}


# dense grids of each side of the cutoff, on which to measure the stop margin
DENSE_INPUTS = {
    "series": np.linspace(0.0, 30.0, 300_001),
    "asymptotic": np.geomspace(np.nextafter(30.0, math.inf), 1e8, 300_001),
}

# arguments next to a neighbour on their own side of the cutoff that converges later or earlier
SAME_SIDE = {
    "later": [(0.0, 0.5), (1e-9, 0.5), (0.5, 29.99), (75.0, 30.01), (800.0, 75.0)],
    "earlier": [(0.5, 1e-9), (29.99, 0.5), (30.0, 0.5), (30.01, 75.0), (75.0, 800.0),
                (800.0, 1e6)],
}


def terms_past_own_stop(x, order, asymptotic):
    """Each argument's own stop k, and the largest |term / total| its loop adds after it.

    The loop is ``_series``'s or ``_asymptotic_scaled``'s with its stop test
    made per argument. It runs until every argument has taken one term past
    its own stop; ``kept`` is False where a term past the stop moved the total.
    """
    mu = 4.0 * order * order
    q = 0.25 * x * x
    term, total = np.ones_like(x), np.ones_like(x)
    stop = np.zeros(x.shape, dtype=int)
    worst = np.zeros_like(x)
    kept = np.ones(x.shape, dtype=bool)
    for k in range(1, 30 if asymptotic else 400):
        if asymptotic:
            term = term * ((2 * k - 1) ** 2 - mu) / (8.0 * k * x)
        else:
            term = term * q / (k * (k + order))
        past = stop > 0
        worst[past] = np.maximum(worst[past], np.abs(term[past] / total[past]))
        kept &= ~past | (total + term == total)
        total = total + term
        if past.all():
            break
        stop[~past & (np.abs(term) <= _REL_STOP * np.abs(total))] = k
    return stop, worst, kept


def oracle_pair(z):
    """scaled_bessel's pair from the oracle loops, split at the same cutoff."""
    i0e, i1e_over_z = np.empty_like(z), np.empty_like(z)
    small = z <= 30.0
    a = z[small]
    i0e[small] = np.exp(-a) * series_oracle(a, 0)
    i1e_over_z[small] = 0.5 * np.exp(-a) * series_oracle(a, 1)
    a = z[~small]
    i0e[~small] = asymptotic_oracle(a, 0)
    i1e_over_z[~small] = asymptotic_oracle(a, 1) / a
    return i0e, i1e_over_z


class TestBessel:
    def test_values_at_zero(self):
        assert scaled_bessel(0.0) == (1.0, 0.5)

    def test_frozen_series_values(self):
        # independent ascending-series I0(1) and I1(1), truncated below 1e-16, scaled by e^-1
        scale = math.exp(-1.0)
        i0e, i1e_over_z = scaled_bessel(1.0)
        assert i0e == pytest.approx(1.2660658777520082 * scale, rel=1e-14)
        assert i1e_over_z == pytest.approx(0.5651591039924851 * scale, rel=1e-13)

    @pytest.mark.parametrize("x", np.geomspace(1e-6, 600.0, 41).tolist() + [29.9, 30.0, 30.1])
    def test_against_scipy(self, x):
        i0e, i1e_over_z = scaled_bessel(x)
        assert i0e == pytest.approx(float(special.i0e(x)), rel=1e-12)
        assert i1e_over_z == pytest.approx(float(special.i1e(x)) / x, rel=1e-12)

    def test_i1e_over_x_matches_ratio(self):
        xs = np.array([1e-12, 1e-6, 0.5, 10.0, 29.99, 30.01, 250.0])
        assert np.allclose(scaled_bessel(xs)[1], special.i1e(xs) / xs, rtol=1e-12, atol=0.0)

    def test_array_input(self):
        xs = np.array([[0.0, 0.5], [2.0, 40.0]])
        i0e, i1e_over_z = scaled_bessel(xs)
        assert i0e.shape == i1e_over_z.shape == xs.shape
        assert np.allclose(i0e, special.i0e(xs), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("x", [0.5, 40.0])
    def test_zero_d_input(self, x):
        # a scalar or 0-d array runs through the array path and keeps its 0-d shape
        for arg in (x, np.float64(x), np.asarray(x)):
            pair = scaled_bessel(arg)
            assert [value.shape for value in pair] == [(), ()]
            assert [float(value) for value in pair] == [
                value[0] for value in scaled_bessel(np.array([x]))
            ]

    @pytest.mark.parametrize(
        "x, partner",
        [pytest.param(x, 100.0 if x <= 30.0 else 1.0, id=str(x))
         for x in [0.0, 1e-9, 0.5, 29.99, 30.0, 30.01, 75.0, 800.0]]
        + [pytest.param(x, partner, id=f"{x}-{when}")
           for when, pairs in SAME_SIDE.items() for x, partner in pairs],
    )
    def test_scalar_matches_array_bits(self, x, partner):
        # a value does not depend on its neighbours: one across the cutoff, or one on
        # its own side whose loop runs past x's own stop or stops before it
        for i, scalar in enumerate(scaled_bessel(x)):
            assert scalar == scaled_bessel(np.array([x, partner]))[i][0]
            assert scalar == scaled_bessel(np.array([partner, x]))[i][1]

    @pytest.mark.parametrize("when", sorted(SAME_SIDE))
    def test_same_side_neighbours_converge_as_named(self, when):
        for x, partner in SAME_SIDE[when]:
            for order in (0, 1):
                stop = terms_past_own_stop(np.array([x, partner]), order, x > 30.0)[0]
                assert stop[1] > stop[0] if when == "later" else stop[1] < stop[0]

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("side", sorted(DENSE_INPUTS))
    def test_terms_past_own_stop_keep_every_bit(self, side, order):
        # the density's blocks stop at their own slowest argument, so each value must
        # not depend on how far a slower neighbour runs its loop: every term past an
        # argument's own stop is under 2^-54 of its total, below half an ulp
        # (at most ~1.2e-17 on the series side, ~2.2e-17 on the asymptotic one)
        stop, worst, kept = terms_past_own_stop(DENSE_INPUTS[side], order, side == "asymptotic")
        assert np.all(stop > 0)
        assert worst.max() < 2.0**-54
        assert kept.all()

    def test_huge_argument_stays_finite(self):
        assert all(np.isfinite(scaled_bessel(800.0)))

    @pytest.mark.parametrize("name", sorted(PAIR_INPUTS))
    def test_pair_matches_oracle_bits(self, name):
        # the series and asymptotic oracles on the same two sides of the cutoff
        z = PAIR_INPUTS[name]
        for got, want in zip(scaled_bessel(z), oracle_pair(z)):
            assert got.shape == want.shape == z.shape
            assert got.tobytes() == want.tobytes()


class TestSeriesOracles:
    """The in-place loops stop where the whole-array test would, so every bit matches.

    Each loop sums both orders and stops when the slower one does; the oracle sums one
    order and stops at its own k, so these also check the terms a faster order adds after.
    """

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("name", sorted(SERIES_INPUTS))
    def test_series_matches_oracle_bits(self, name, order):
        x = SERIES_INPUTS[name]
        got, want = _series(x)[order], series_oracle(x, order)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("name", sorted(ASYMPTOTIC_INPUTS))
    def test_asymptotic_matches_oracle_bits(self, name, order):
        x = ASYMPTOTIC_INPUTS[name]
        got, want = _asymptotic_scaled(x)[order], asymptotic_oracle(x, order)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", sorted(DENSE_INPUTS))
    def test_dense_grid_matches_oracle_bits(self, side):
        # both rows of one loop over 300,001 arguments, against one oracle run per order
        x = DENSE_INPUTS[side]
        loop, oracle = {"series": (_series, series_oracle),
                        "asymptotic": (_asymptotic_scaled, asymptotic_oracle)}[side]
        for order, got in enumerate(loop(x)):
            assert got.tobytes() == oracle(x, order).tobytes()
