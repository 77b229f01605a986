import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import horizon_min_slack, time_horizon
from telhaz.hazard import (
    ConstantHazard,
    CustomHazard,
    PiecewiseLinearHazard,
    PolynomialHazard,
    parse_hazard_config,
)
from telhaz.presets import APP2_BASELINE, HAZARDS
from telhaz.telegraph import TelegraphParams


ALL_SPECS = [
    ConstantHazard(0.0125),
    PolynomialHazard(15.0, 0.001, 1.0),
    APP2_BASELINE,
    HAZARDS["exponential_growth"],
    HAZARDS["soft_step"],
]


class TestRateValues:
    def test_constant(self):
        spec = ConstantHazard(0.0125)
        assert spec.rate(50.0) == 0.0125
        assert spec.cumulative(80.0) == pytest.approx(1.0)
        assert spec.cdf(80.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_polynomial(self):
        spec = PolynomialHazard(15.0, 0.001, 1.0)
        assert spec.rate(1.0) == pytest.approx(1.001, rel=1e-14)
        assert spec.rate(0.0) == pytest.approx(1.001, rel=1e-14)
        # stationary points at 1/3 (local max) and 1 (local min)
        third = spec.rate(1.0 / 3.0)
        assert third > spec.rate(0.2) and third > spec.rate(0.5)

    def test_piecewise_breakpoint_convention(self):
        # the breakpoint belongs to the left piece: r(650) = 3.5e-6 * 650
        assert APP2_BASELINE.rate(650.0) == 3.5e-6 * 650.0
        assert APP2_BASELINE.rate(660.0) == pytest.approx(-4.07143e-6 * 660.0 + 0.00492143)
        assert APP2_BASELINE.rate(1000.0) == pytest.approx(-4.07143e-6 * 1000.0 + 0.00492143)
        assert APP2_BASELINE.rate(1200.0) == pytest.approx(8e-6 * 1200.0 - 0.00715)
        assert APP2_BASELINE.rate(0.0) == 0.0  # published baseline starts at zero

    def test_domain_errors(self):
        spec = ConstantHazard(1.0, support_end=2.0)
        with pytest.raises(ValueError):
            spec.rate(2.0)
        with pytest.raises(ValueError):
            spec.rate(-0.1)
        with pytest.raises(ValueError):
            spec.rate(float("nan"))
        assert spec.rate(1.999) == 1.0

    def test_time_error_quotes_first_bad_value(self):
        spec = ConstantHazard(2.0, support_end=5.0)
        with pytest.raises(ValueError) as info:
            spec.cumulative(np.linspace(0.0, 10.0, 401))
        assert str(info.value) == "t must lie in [0, 5.0), got 5.0"
        with pytest.raises(ValueError, match="must be a real number, got None"):
            spec.rate([0.5, None])


class TestCumulative:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_matches_quadrature(self, spec):
        horizon = time_horizon(spec) if math.isinf(spec.support_end) else spec.support_end
        # where r bends or turns: the starts of its pieces and its turning points
        kinks = [s for s, _, _ in getattr(spec, "segments", ()) if s > 0.0]
        kinks += spec.turning_points
        for t in np.linspace(horizon / 7, min(horizon, 2000.0), 5):
            numeric, _ = integrate.quad(
                spec.rate, 0.0, float(t), epsabs=1e-12, epsrel=1e-12, limit=400,
                points=[p for p in kinks if p < t],
            )
            assert spec.cumulative(float(t)) == pytest.approx(numeric, abs=1e-9, rel=1e-9)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_nondecreasing_from_zero(self, spec):
        horizon = min(time_horizon(spec), 2000.0)
        ts = np.linspace(0.0, horizon * 0.999, 200)
        cums = spec.cumulative(ts)
        assert cums[0] == 0.0
        assert np.all(np.diff(cums) >= 0.0)

    def test_polynomial_closed_form(self):
        spec = PolynomialHazard(15.0, 0.001, 1.0)
        t = 1.3
        expected = 15.0 * (t**4 / 4 - 2 * t**3 / 3 + t**2 / 2) + 1.001 * t
        assert spec.cumulative(t) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "spec, t, rate",
        [
            (ConstantHazard(2.0), 1e308, 2.0),  # rate0 * t
            (PiecewiseLinearHazard(((0.0, 1.0, 1.0),)), 1e200, 1e200),  # t**2
            (HAZARDS["exponential_growth"], 800.0, math.inf),  # exp(t) past t ~ 709
        ],
        ids=["constant", "piecewise", "exponential_growth"],
    )
    def test_overflow_is_inf_for_every_family(self, spec, t, rate):
        # the suite turns numpy's overflow warning into an error
        assert spec.rate(t) == rate
        assert spec.cumulative(t) == math.inf
        assert spec.cumulative([1.0, t])[1] == math.inf
        assert spec.min_slack(0.5, 0.0, t)[0] > 0.0

    def test_piece_past_overflow_not_nan(self):
        # t**2 overflows past ~1.3e154: a flat piece's 0 * inf once gave NaN, and
        # so did inf - inf where a piece with a negative intercept overflows both terms
        spec = parse_hazard_config("kind = piecewise\nsegments = 0:0:2\n")
        assert spec.cumulative(1e200) == 2e200
        assert spec.cumulative([1e200, 1e308]).tolist() == [2e200, math.inf]
        later = parse_hazard_config("kind = piecewise\nsegments = 0:0:2; 1e200:0:3\n")
        assert later.cumulative(1.5e200) == 3.5e200
        rising = parse_hazard_config("kind = piecewise\nsegments = 0:1:1; 10:1:-5\n")
        assert rising.cumulative([1e200, 1e308]).tolist() == [math.inf, math.inf]

    def test_polynomial_overflow_is_inf(self):
        # t**4 overflows past ~1e77 and t**3 past ~5.6e102, where inf - inf gave NaN
        spec = PolynomialHazard(15.0, 0.001, 1.0)
        assert spec.cumulative([1e80, 1e103, 1e308]).tolist() == [math.inf] * 3
        assert spec.cumulative(1e103) == math.inf
        assert spec.cdf(1e103) == 1.0 and spec.survival(1e103) == 0.0


class TestDistribution:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_cdf_survival_identities(self, spec):
        horizon = min(time_horizon(spec), 2000.0)
        ts = np.linspace(0.0, horizon * 0.999, 64)
        cdf = spec.cdf(ts)
        surv = spec.survival(ts)
        assert cdf[0] == 0.0
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.allclose(cdf + surv, 1.0, atol=1e-15)
        assert np.all(np.diff(cdf) >= 0.0)

    def test_survival_underflows_to_zero(self):
        spec = ConstantHazard(1.0)
        assert spec.survival(800.0) == 0.0

    @pytest.mark.parametrize(
        "spec,c",
        [
            (ConstantHazard(0.0125), 0.0004),
            (PolynomialHazard(15.0, 0.001, 1.0), 1.0),
            (HAZARDS["exponential_growth"], 1.0),
        ],
        ids=("constant", "polynomial", "exp-growth"),
    )
    def test_stochastic_order_bound(self, spec, c):
        # r > c forces F(t) > 1 - exp(-c t) strictly for t > 0
        horizon = time_horizon(spec)
        grid = np.linspace(horizon / 512, horizon, 512)
        assert spec.min_slack(c, 0.0, horizon)[0] > 0.0
        cdf = spec.cdf(grid)
        bound = -np.expm1(-c * grid)
        assert np.all(cdf > bound)


# each preset hazard at the amplitude c of the figure or application that uses it
_FIGURE_C = [("polynomial_c1", 1.0), ("polynomial_c2", 2.0), ("exponential_growth", 1.0),
             ("soft_step", 1.0), ("app1_constant", 0.0004), ("app2_piecewise", 0.00025)]


def _line(q: float, m: float, end: float = math.inf) -> CustomHazard:
    """The rising line r(t) = q + m t as a caller-supplied pair."""
    return CustomHazard(lambda t: q + m * t, lambda t: (q + 0.5 * m * t) * t, support_end=end)


@st.composite
def _hazards(draw):
    """A constant, polynomial, piecewise or custom-line hazard on a finite or infinite support."""
    end = draw(st.one_of(st.just(math.inf), st.floats(0.01, 1e3)))
    rate = st.floats(1e-3, 10.0)
    kind = draw(st.sampled_from(["constant", "polynomial", "piecewise", "custom"]))
    if kind == "constant":
        return ConstantHazard(draw(rate), support_end=end)
    if kind == "polynomial":
        return PolynomialHazard(draw(rate), draw(rate), draw(st.floats(0.0, 10.0)), support_end=end)
    if kind == "custom":
        # a slope down to 1e-16 of r(0), where r(t) rounds to r(0) for t <= 1 but not at the
        # tail the oracle reads
        q = draw(rate)
        return _line(q, q * draw(st.floats(1e-16, 10.0)), end)
    # lines through positive end rates: on an infinite support the last one is flat or
    # rising, and a finite support ends inside the pieces, so r > 0 on the support
    pieces = draw(st.lists(st.tuples(st.floats(0.01, 100.0), rate, rate), min_size=1, max_size=5))
    segments, start = [], 0.0
    for i, (length, left, right) in enumerate(pieces):
        if i == len(pieces) - 1 and end == math.inf:
            right = max(left, right)
        slope = (right - left) / length
        segments.append((start, slope, left - slope * start))
        start += length
    if end < math.inf:
        end = start * draw(st.floats(0.05, 1.0))
    return PiecewiseLinearHazard(tuple(segments), support_end=end)


_PAIR = np.array([0.5, 1.0])


class TestDominance:
    def test_accepts_and_reports(self):
        assert ConstantHazard(0.0125).min_slack(0.0004, 1.0, 100.0)[0] > 0.0
        slack, t, attained = ConstantHazard(0.0125).min_slack(0.02, 1.0, 100.0)
        assert slack == pytest.approx(0.0125 - 0.02)
        assert (t, attained) == (1.0, False)

    def test_polynomial_boundary_amplitude(self):
        # min of the rate is c_ref + beta, so c = c_ref still passes
        spec = PolynomialHazard(15.0, 0.001, 1.0)
        assert spec.min_slack(1.0, 0.0, 3.0)[0] > 0.0
        assert not spec.min_slack(1.001, 0.0, 3.0)[0] > 0.0
        # the interior minimum is reached exactly at the stationary point t = 1
        assert spec.min_slack(1.0, 0.5, 3.0) == (spec.rate(1.0) - 1.0, 1.0, True)

    def test_default_grid_contains_critical_points(self):
        # a custom rate with a dip at a declared turning point; at lo itself r is
        # only approached, from the right
        spec = CustomHazard(
            rate_fn=lambda t: 1.0 + 100.0 * np.abs(np.asarray(t) - 0.3001),
            cumulative_fn=lambda t: np.asarray(t),  # unused here
            turning_points=(0.3001,),
        )
        assert spec.min_slack(0.5, 0.0, 1.0) == (0.5, 0.3001, True)
        assert spec.min_slack(0.5, 0.3001, 1.0) == (0.5, 0.3001, False)

    @pytest.mark.parametrize(
        "name,c",
        [("polynomial_c1", 1.0), ("polynomial_c2", 2.0), ("app1_constant", 0.0004),
         ("app2_piecewise", 0.00025)],
    )
    def test_exact_against_dense_grid(self, name, c):
        spec = HAZARDS[name]
        horizon = time_horizon(spec)
        points = np.linspace(0.0, horizon, 10**6 + 1)
        rates = spec.rate(points)
        slack, t, _ = spec.min_slack(c, 0.0, horizon)
        grid_min = float(np.min(rates[1:])) - c
        # r moves by at most max |r(t_k+1) - r(t_k)| within one grid step
        assert slack <= grid_min <= slack + float(np.max(np.abs(np.diff(rates))))
        assert 0.0 <= t <= horizon

    @pytest.mark.parametrize("segments", ["0:0:2; 1:10000:-9999.5", "0:0:2; 1:0:0.5"])
    def test_drop_just_after_breakpoint(self, segments):
        # r(1) = 2 belongs to the left piece; r falls below c = 1 just after it
        spec = parse_hazard_config(f"kind = piecewise\nsegments = {segments}\n")
        assert spec.min_slack(1.0, 0.0, 10.0) == (-0.5, 1.0, False)
        assert spec.rate(1.0) == 2.0 and spec.rate(1.00001) < 1.0

    @given(
        st.lists(
            st.tuples(
                st.floats(0.01, 10.0),   # piece length
                st.floats(0.001, 5.0),   # rate at the piece's left end
                st.floats(0.001, 5.0),   # rate at its right end
                st.booleans(),           # start where the previous piece ended
            ),
            min_size=1,
            max_size=6,
        ),
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(0.0, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_piecewise_slack_bounds_dense_grid(self, pieces, u, v, c):
        segments, start, previous = [], 0.0, None
        for length, left, right, continuous in pieces:
            if continuous and previous is not None:
                left = previous
            slope = (right - left) / length
            segments.append((start, slope, left - slope * start))
            start, previous = start + length, right
        spec = PiecewiseLinearHazard(tuple(segments), support_end=start)
        lo, hi = sorted((u * start, v * start))
        if not lo < hi:
            return
        slack, t, _ = spec.min_slack(c, lo, hi)
        # a jump can hide a dip shorter than one step, so each breakpoint in (lo, hi] is a point too
        breaks = [first for first, _, _ in segments if lo < first <= hi]
        grid = np.sort(np.concatenate([np.linspace(lo, hi, 4001)[1:], breaks]))
        values = spec.rate(grid) - c
        step = (hi - lo) / 4000
        steepest = max(abs(m) for _, m, _ in segments)
        assert np.all(slack <= values)
        assert float(np.min(values)) - slack <= steepest * step + 1e-12
        assert lo <= t <= hi

    def test_interval_is_checked(self):
        spec = ConstantHazard(1.0, support_end=2.0)
        # hi = support_end is the rest of the support; past it, or inf, is refused
        assert spec.min_slack(0.5, 0.0, 2.0) == (0.5, 0.0, False)
        for lo, hi in ((1.0, 1.0), (-0.1, 1.0), (0.0, 2.5), (0.0, math.inf), (0.0, math.nan)):
            with pytest.raises(ValueError):
                spec.min_slack(0.5, lo, hi)
        for lo, hi, name in ((True, 1.5, "lo"), (0.0, True, "hi"), ("0", 1.5, "lo")):
            with pytest.raises(ValueError, match=f"^{name} must be a real number"):
                spec.min_slack(0.5, lo, hi)

    @pytest.mark.parametrize(
        "c, lo, hi, message",
        [
            (math.nan, 0.0, 1.0, "c must be a finite real number, got nan"),
            (math.inf, 0.0, 1.0, "c must be a finite real number, got inf"),
            (-math.inf, 0.0, 1.0, "c must be a finite real number, got -inf"),
            (True, 0.0, 1.0, "c must be a finite real number, got True"),
            ("1", 0.0, 1.0, "c must be a finite real number, got '1'"),
            (None, 0.0, 1.0, "c must be a finite real number, got None"),
            (1j, 0.0, 1.0, "c must be a finite real number, got 1j"),
            (10**400, 0.0, 1.0, "c must be a finite real number, got a number past the double "
                                "range"),
            (1.0, _PAIR, 2.0, r"lo must be a real number, got array\(\[0.5, 1. \]\)"),
            (1.0, 0.0, _PAIR, r"hi must be a real number, got array\(\[0.5, 1. \]\)"),
        ],
        ids=["nan", "inf", "-inf", "bool", "str", "none", "complex", "1e400", "lo-1d", "hi-1d"],
    )
    def test_arguments_refused_by_name(self, c, lo, hi, message):
        # a NaN c once gave a NaN slack, 1j warned ComplexWarning, 10**400 raised OverflowError,
        # and a 1-d lo or hi raised numpy's TypeError or ValueError
        spec = PolynomialHazard(15.0, 0.001, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                spec.min_slack(c, lo, hi)

    def test_any_finite_c_and_single_times_accepted(self):
        # c is the infimum's offset, of either sign; a 0-d lo or hi is a single time
        spec = PolynomialHazard(15.0, 0.001, 1.0)
        at_zero = spec.min_slack(0.0, 0.0, 3.0)
        assert at_zero.value == 1.001
        assert spec.min_slack(-0.5, 0.0, 3.0) == (1.501, at_zero.t, at_zero.attained)
        assert spec.min_slack(np.float32(0.5), np.array(0.5), np.array(3.0)) == \
            spec.min_slack(0.5, 0.5, 3.0)

    @pytest.mark.parametrize("name,c", _FIGURE_C)
    def test_whole_support_matches_checked_horizon(self, name, c):
        spec = HAZARDS[name]
        assert spec.min_slack(c, 0.0, spec.support_end) == horizon_min_slack(spec, c)

    @given(_hazards(), st.floats(1e-3, 10.0))
    # r(t) = c + 2.2e-19 t rounds to c for t <= 0.5, where a probe midway to t = 1 once read it
    @example(spec=PiecewiseLinearHazard(((0.0, 2.168404344971009e-19, 0.001),)), c=0.001)
    # r(t) = c + 1e-19 t rounds to c for t <= 1, where a probe one step past t = 0 once read it,
    # in the custom family and in a piece to inf
    @example(spec=_line(0.001, 1e-19), c=0.001)
    @example(spec=PiecewiseLinearHazard(((0.0, 1e-19, 0.001),)), c=0.001)
    @settings(max_examples=200, deadline=None)
    def test_whole_support_matches_checked_horizon_drawn(self, spec, c):
        whole, near = spec.min_slack(c, 0.0, spec.support_end), horizon_min_slack(spec, c)
        if near.value == 0.0 and near.attained:  # r = c on a flat stretch: each check
            assert not whole.holds  # refuses it at a probe of its own
        else:
            assert whole == near

    def test_minimum_at_continuous_breakpoint_attained(self):
        # r = 3 - t, then 1 + t past t = 1: r(1) = 2 is reached, at the breakpoint itself
        spec = PiecewiseLinearHazard(((0.0, -1.0, 3.0), (1.0, 1.0, 1.0)))
        assert spec.min_slack(1.0, 0.0, 5.0) == (1.0, 1.0, True)
        assert spec.min_slack(1.0, 1.0, 5.0) == (1.0, 1.0, False)  # lo+ only approaches it

    def test_piecewise_turning_points_are_inner_starts(self):
        assert HAZARDS["app2_piecewise"].turning_points == (650.0, 1000.0)
        assert PiecewiseLinearHazard(((0.0, 0.0, 1.0),)).turning_points == ()

    def test_rest_of_infinite_support_from_any_lo(self):
        # lo past the last breakpoint, and past a custom pair's last turning point;
        # r(101) of soft_step rounds to 1.0 = c, so the probe there reads slack 0
        rising = PiecewiseLinearHazard(((0.0, 0.0, 2.0), (1.0, 1.0, 0.5)))
        assert rising.min_slack(1.0, 5.0, math.inf) == (4.5, 5.0, False)
        soft = HAZARDS["soft_step"]
        assert soft.min_slack(1.0, 100.0, math.inf) == (0.0, 101.0, True)

    def test_time_horizon_reaches_tail(self):
        for spec in ALL_SPECS:
            horizon = time_horizon(spec)
            if math.isinf(spec.support_end):
                assert spec.survival(horizon) <= 1e-6 * (1.0 + 1e-9)
            else:
                assert horizon == spec.support_end

    def test_time_horizon_refuses_slow_growth(self):
        slow = CustomHazard(lambda t: np.full_like(t, 1e-30), lambda t: 1e-30 * t)
        with pytest.raises(ValueError, match="^cumulative hazard grows too slowly"):
            time_horizon(slow)


class TestValidation:
    def test_constant_rejects_bad_rate(self):
        for bad in (0.0, -1.0, math.inf, math.nan, True, "1"):
            with pytest.raises(ValueError):
                ConstantHazard(bad)
        assert ConstantHazard(np.int64(2)).rate0 == 2.0

    def test_polynomial_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PolynomialHazard(0.0, 0.001, 1.0)
        with pytest.raises(ValueError):
            PolynomialHazard(15.0, -0.001, 1.0)
        with pytest.raises(ValueError):
            PolynomialHazard(15.0, 0.001, -1.0)

    def test_piecewise_structure_errors(self):
        with pytest.raises(ValueError):
            PiecewiseLinearHazard(())
        with pytest.raises(ValueError):
            PiecewiseLinearHazard(((1.0, 0.0, 1.0),))  # must start at 0
        with pytest.raises(ValueError):
            PiecewiseLinearHazard(((0.0, 0.0, 1.0), (0.0, 0.0, 2.0)))
        with pytest.raises(ValueError):  # goes negative inside the support
            PiecewiseLinearHazard(((0.0, -1.0, 0.5),))
        with pytest.raises(ValueError):  # interior zero is not tolerated
            PiecewiseLinearHazard(((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)))

    @pytest.mark.parametrize(
        "segments, message",
        [
            ((("0", "1", "1"),), "must be a real number, got '0'"),
            (((0.0, True, 1.0),), "must be a real number, got True"),
            (((0.0, None, 1.0),), "must be a real number, got None"),
            (((0.0, 1j, 1.0),), "must be a real number, got 0j"),
            (((0.0, 10**400, 1.0),), "must lie within the double range, got a number past it"),
            (((0.0, 1.0),), r"must be a \(k, 3\) array, got shape \(1, 2\)"),
            (5, r"must be a \(k, 3\) array, got shape \(\)"),
            ((), "must be non-empty"),
        ],
        ids=["str", "bool", "none", "complex", "1e400", "pair", "int", "empty"],
    )
    def test_piecewise_segments_refused_by_name(self, segments, message):
        # the first two were once read as numbers; the others raised TypeError, OverflowError or
        # an unnamed unpacking ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^segments {message}$"):
                PiecewiseLinearHazard(segments)

    def test_times_refused_by_least_bad_value(self):
        # the first bad value was quoted once; a NaN is quoted only where every bad value is NaN
        spec = ConstantHazard(1.0, support_end=2.0)
        for times, got in (([3.0, math.nan, -1.0], "-1.0"), ([math.nan, 5.0], "5.0"),
                           ([math.nan, math.nan], "nan")):
            with pytest.raises(ValueError, match=rf"^t must lie in \[0, 2.0\), got {got}$"):
                spec.rate(times)

    def test_piecewise_segments_read_as_floats(self):
        # any (k, 3) array of reals: ints, numpy scalars or one array, kept as tuples of floats
        for segments in (np.array([[0, 1, 1], [2, 0, 5]]), [(0, np.float32(1.0), 1), (2, 0, 5.0)]):
            spec = PiecewiseLinearHazard(segments)
            assert spec.segments == ((0.0, 1.0, 1.0), (2.0, 0.0, 5.0))
            assert {type(v) for seg in spec.segments for v in seg} == {float}
            assert spec.turning_points == (2.0,) and spec.rate(1.0) == 2.0

    @pytest.mark.parametrize(
        "segments, t",
        [
            ("0:0:0", "1.0"),  # zero past t = 0, one step past the last start
            ("0:0:1; 1:0:0", "1.0"),
            ("0:1:1; 2:-1:2.5; 4:1:-1", "4.0"),  # the middle piece crosses zero before its end
            ("0:0:1; 1e20:0:-1", "1e+20"),  # where start + 1 rounds to start
        ],
    )
    def test_piecewise_names_first_nonpositive_t(self, segments, t):
        with pytest.raises(ValueError, match=f"^rate is not positive at t = {re.escape(t)}$"):
            parse_hazard_config(f"kind = piecewise\nsegments = {segments}\n")

    def test_piecewise_parameters_must_be_finite(self):
        with pytest.raises(ValueError, match="^segment parameters must be finite$"):
            parse_hazard_config("kind = piecewise\nsegments = 0:0:1; 1:0:inf\n")

    def test_piecewise_positivity_on_finite_support(self):
        # the last piece is checked up to support_end, not one step past its start
        with pytest.raises(ValueError, match="^rate is not positive at t = 5.0$"):
            PiecewiseLinearHazard(((0.0, -1.0, 4.0),), support_end=5.0)
        assert PiecewiseLinearHazard(((0.0, -1.0, 4.0),), support_end=3.0).rate(2.9) > 0.0
        # a zero at t = 0 is tolerated, however small the slope after it
        assert PiecewiseLinearHazard(((0.0, 0.5, 0.0),)).rate(0.0) == 0.0
        with pytest.raises(ValueError, match="^last segment must have slope >= 0"):
            PiecewiseLinearHazard(((0.0, -1e-9, 1.0),))

    @pytest.mark.parametrize(
        "points, message",
        [
            ((0.5, -1.0), r"must lie in \[0, 2.0\), got -1.0"),
            ((2.0,), r"must lie in \[0, 2.0\), got 2.0"),
            ((math.nan,), r"must lie in \[0, 2.0\), got nan"),
            ((True,), r"must be a real number, got True"),
            ((0.0, 1.0), r"must lie in \(0, 2.0\), got 0.0"),
            (0.5, r"must be a sequence of times, got 0.5"),
            (((0.5,),), r"must be a sequence of times, got \(\(0.5,\),\)"),
        ],
    )
    def test_custom_turning_points_checked(self, points, message):
        with pytest.raises(ValueError, match=f"^turning_points {message}$"):
            CustomHazard(np.exp, np.expm1, support_end=2.0, turning_points=points)
        # in any order, repeated or not, they are the same turning points: r = 1 at t = 1 and 2
        def rate(t):
            return 1.0 + np.abs((t - 1.0) * (t - 2.0))

        spec = CustomHazard(rate, np.exp, turning_points=(2.0, 1.0, 1.5, 2.0))
        ordered = CustomHazard(rate, np.exp, turning_points=(1.0, 1.5, 2.0))
        assert spec.min_slack(0.5, 0.0, 3.0) == ordered.min_slack(0.5, 0.0, 3.0) == (0.5, 1.0, True)

    def test_custom_output_of_another_shape_refused_by_name(self):
        # a scalar for an array once reached min_slack, and so PerturbedModel, as numpy's IndexError
        two = CustomHazard(lambda t: 2.0, lambda t: 2.0 * t)
        message = r"^rate_fn must return the shape of its times, \(3,\), got \(\)$"
        with pytest.raises(ValueError, match=message):
            two.min_slack(1.0, 0.0, math.inf)
        assert two.rate(0.5) == 2.0  # a scalar is the shape of a scalar time
        one = CustomHazard(lambda t: np.full_like(t, 2.0), lambda t: np.ones(1))
        message = r"^cumulative_fn must return the shape of its times, \(\), got \(1,\)$"
        for call in (one.cumulative, one.cdf, one.survival):
            with pytest.raises(ValueError, match=message):
                call(0.5)

    @pytest.mark.parametrize("name", ["rate_fn", "cumulative_fn"])
    def test_custom_callables_checked(self, name):
        fns = {"rate_fn": np.exp, "cumulative_fn": np.expm1, name: 2.0}
        with pytest.raises(ValueError, match=f"^{name} must be callable, got 2.0$"):
            CustomHazard(**fns)

    @pytest.mark.parametrize("value", [10**400, -(10**400), 10**5000],
                             ids=["1e400", "-1e400", "1e5000"])
    def test_int_past_double_range_refused_by_name(self, value):
        # float() of it raises OverflowError, and past 4300 digits so does its repr
        message = " must lie within the double range, got a number past it$"
        with pytest.raises(ValueError, match="^rate0" + message):
            ConstantHazard(value)
        with pytest.raises(ValueError, match="^support_end" + message):
            PolynomialHazard(15.0, 0.001, 1.0, support_end=value)
        with pytest.raises(ValueError, match="^c" + message):
            TelegraphParams(value, 1.0)
        with pytest.raises(ValueError, match="^t" + message):
            ConstantHazard(1.0).rate([0.5, value])

    def test_custom_nan_rate_refused_by_name(self):
        # r = 1 + t exp(-t) turns at t = 1; at t = inf it is inf * 0
        spec = CustomHazard(lambda t: 1.0 + t * np.exp(-t),
                            lambda t: t + 1.0 - (1.0 + t) * np.exp(-t), turning_points=(1.0,))
        with pytest.raises(ValueError, match="^rate is NaN at t = inf$"):
            spec.min_slack(0.5, 0.0, math.inf)
        assert spec.min_slack(0.5, 0.0, 10.0) == (0.5, 0.0, False)

    @pytest.mark.parametrize("end", [5, np.int64(5), np.float32(5.0)], ids=["int", "int64", "float32"])
    def test_support_end_stored_as_float(self, end):
        for spec in (ConstantHazard(1.0, support_end=end), PolynomialHazard(15.0, 0.001, 1.0, end),
                     CustomHazard(np.exp, np.expm1, support_end=end)):
            assert type(spec.support_end) is float and spec.support_end == 5.0
            with pytest.raises(ValueError, match=r"^t must lie in \[0, 5.0\), got 5.0$"):
                spec.rate(5)

    @pytest.mark.parametrize(
        "end, message",
        [
            (True, "must be a real number, got True"),
            ("5", "must be a real number, got '5'"),
            (np.array(5.0), r"must be a real number, got array\(5.\)"),
            (0.0, r"must be > 0 \(inf by default\), got 0.0"),
            (-1, r"must be > 0 \(inf by default\), got -1"),
            (math.nan, r"must be > 0 \(inf by default\), got nan"),
        ],
        ids=["bool", "str", "array", "zero", "negative", "nan"],
    )
    def test_support_end_refused_by_name(self, end, message):
        segments = ((0.0, 0.0, 1.0),)
        for build in (lambda: ConstantHazard(1.0, support_end=end),
                      lambda: PiecewiseLinearHazard(segments, support_end=end),
                      lambda: CustomHazard(np.exp, np.expm1, support_end=end)):
            with pytest.raises(ValueError, match=f"^support_end {message}$"):
                build()

    def test_nan_closed_form_refused_by_least_t(self):
        # r = 2 and R = 2t up to t = 1; past it one or the other is NaN
        def nan_past_1(t):
            return np.where(t > 1.0, np.nan, 2.0 * t)

        nan_rate = CustomHazard(nan_past_1, lambda t: 2.0 * t)
        nan_cumulative = CustomHazard(lambda t: np.full_like(t, 2.0), nan_past_1)
        with pytest.raises(ValueError, match="^rate is NaN at t = 2.0$"):
            nan_rate.rate([0.5, 2.0, 3.0])
        for call in (nan_cumulative.cumulative, nan_cumulative.cdf, nan_cumulative.survival):
            with pytest.raises(ValueError, match="^cumulative hazard is NaN at t = 2.0$"):
                call(np.array([[0.5, 1.0], [3.0, 2.0]]))
        assert nan_rate.rate(0.5) == 1.0 and nan_cumulative.cumulative([0.5, 1.0]).tolist() == [1.0, 2.0]
        # the polynomial's R is inf - inf past t ~ 5.6e102, and is read as inf
        assert HAZARDS["polynomial_c1"].cumulative(1e103) == math.inf

    def test_custom_spec_with_finite_support(self):
        spec = CustomHazard(
            rate_fn=lambda t: 1.0 / (1.0 - np.asarray(t)),
            cumulative_fn=lambda t: -np.log1p(-np.asarray(t)),
            support_end=1.0,
        )
        assert spec.rate(0.5) == pytest.approx(2.0)
        assert spec.cdf(0.5) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            spec.rate(1.0)
        # survival near the support end shrinks smoothly toward zero
        assert spec.survival(1.0 - 1e-12) == pytest.approx(1e-12, rel=1e-3)


class TestConfigParsing:
    def test_constant_round_trip(self):
        spec = parse_hazard_config("kind = constant\nrate = 0.0125\n")
        assert isinstance(spec, ConstantHazard)
        assert spec.rate0 == 0.0125

    def test_polynomial_with_comments(self):
        text = "# showcase\nkind = polynomial\nalpha = 15\nbeta = 0.001\nc_ref = 1\n"
        spec = parse_hazard_config(text)
        assert isinstance(spec, PolynomialHazard)
        assert spec.rate(1.0) == pytest.approx(1.001)

    def test_piecewise(self):
        text = (
            "kind = piecewise\n"
            "segments = 0:3.5e-6:0; 650:-4.07143e-6:0.00492143; 1000:8e-6:-0.00715\n"
        )
        spec = parse_hazard_config(text)
        assert spec.rate(650.0) == APP2_BASELINE.rate(650.0)
        assert spec.cumulative(1500.0) == pytest.approx(APP2_BASELINE.cumulative(1500.0))

    def test_support_end(self):
        spec = parse_hazard_config("kind = constant\nrate = 1\nsupport_end = 2\n")
        assert spec.support_end == 2.0

    @pytest.mark.parametrize(
        "text",
        [
            "rate = 1\n",                              # missing kind
            "kind = weibull\nrate = 1\n",              # unknown kind
            "kind = constant\n",                       # missing key
            "kind = constant\nrate = 1\nextra = 2\n",  # unused key
            "kind = piecewise\nsegments = 0:1\n",      # malformed segment
            "kind constant\n",                         # not key=value
            "kind = constant\nrate = 1\nsupport_end = 0\n",
            "kind = constant\nrate = 1\nsupport_end = -5\n",
            "kind = constant\nrate = 1\nsupport_end = nan\n",
            "kind = constant\nrate = 1\nrate = 2\n",  # repeated key
            "kind = constant\nrate = 1\nRATE = 3\n",  # repeated key, other case
        ],
    )
    def test_errors(self, text):
        if "support_end" in text:
            named = "support_end"
        elif text.lower().count("rate =") > 1:
            named = "line 3: repeated key 'rate'"
        else:
            named = None
        with pytest.raises(ValueError, match=named):
            parse_hazard_config(text)


# Python values of every kind a caller might pass for a number
_VALUES = st.one_of(
    st.floats(),  # NaN and +-inf among them
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**400, -(10**400), 2**1024]),  # ints past the double range
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.array),  # 0-d
    st.lists(st.floats(), max_size=3).map(np.array),
)
# callables for CustomHazard: a closed form, one that overflows, and ones of the wrong shape
_CALLABLES = {
    "line": lambda t: 1.0 + t,
    "exp": lambda t: 1.0 + np.exp(t),
    "scalar": lambda t: 2.0,
    "one": lambda t: np.ones(1),
}


def _mostly(valid):
    """``valid`` half the time, any of ``_VALUES`` otherwise, so that some draws build."""
    return st.booleans().flatmap(lambda ok: valid if ok else _VALUES)


_NUMBER = _mostly(st.floats(0.01, 10.0))
# what a refusal opens with, for each family: an argument's name, or the t it fails at
_REFUSALS = {
    "constant": r"(rate0|support_end) must ",
    "polynomial": r"(alpha|beta|c_ref|support_end) must ",
    "piecewise": r"((segments|segment parameters|segment starts|first segment|last segment"
                 r"|support_end) must |bad segment |rate is not positive at t = )",
    "custom": r"((rate_fn|cumulative_fn|support_end|turning_points) must "
              r"|(rate|cumulative hazard) is NaN at t = )",
    "noise": r"(c|lam) must ",
}


@st.composite
def _valid_segments(draw):
    """One to three [start, slope, intercept] that build: starts from 0 strictly increasing,
    r > 0 on every piece, and a last slope >= 0."""
    starts = [0.0]
    for _ in range(draw(st.integers(0, 2))):
        starts.append(starts[-1] + draw(st.floats(0.01, 10.0)))
    segments = []
    for start, stop in zip(starts, starts[1:] + [None]):
        slope = draw(st.floats(0.0 if stop is None else -10.0, 10.0))
        least_at = stop if slope < 0.0 else start  # r is least at one end of its piece
        segments.append([start, slope, draw(st.floats(0.01, 10.0)) - slope * least_at])
    return segments


@st.composite
def _constructions(draw):
    """A family's name and the keyword arguments to build it from, each a drawn Python value."""
    kind = draw(st.sampled_from(sorted(_REFUSALS)))
    optional = {} if draw(st.booleans()) else {"support_end": draw(_NUMBER)}
    if kind == "constant":
        return kind, {"rate0": draw(_NUMBER), **optional}
    if kind == "polynomial":
        return kind, {name: draw(_NUMBER) for name in ("alpha", "beta", "c_ref")} | optional
    if kind == "noise":
        return kind, {"c": draw(_NUMBER), "lam": draw(_NUMBER)}
    if kind == "custom":
        fns = _mostly(st.sampled_from(sorted(_CALLABLES)).map(_CALLABLES.get))
        points = _mostly(st.one_of(st.lists(_NUMBER, max_size=2).map(tuple),
                                   st.lists(st.floats(0.01, 10.0), max_size=2).map(np.array)))
        extra = {} if draw(st.booleans()) else {"turning_points": draw(points)}
        return kind, {"rate_fn": draw(fns), "cumulative_fn": draw(fns), **optional, **extra}
    segments = draw(_valid_segments())
    if draw(st.booleans()):  # one of the values, half the time, made any value
        i = draw(st.integers(0, 3 * len(segments) - 1))
        segments[i // 3][i % 3] = draw(_VALUES)
    if draw(st.booleans()):
        return kind, {"segments": tuple(map(tuple, segments)), **optional}
    # from config text, as the CLI reads it
    text = "; ".join(":".join(map(str, segment)) for segment in segments)
    lines = ["kind = piecewise", f"segments = {text}"]
    lines += [f"support_end = {end}" for end in optional.values()]
    return kind, {"text": "\n".join(lines)}


def _build(kind: str, args: dict):
    if "text" in args:
        return parse_hazard_config(args["text"])
    family = {"constant": ConstantHazard, "polynomial": PolynomialHazard,
              "piecewise": PiecewiseLinearHazard, "custom": CustomHazard,
              "noise": TelegraphParams}[kind]
    return family(**args)


def _evaluate_all(spec, c, any_c):
    """Each evaluator of ``spec`` at a few times in its support, and its slack over all of it,
    at ``c`` and at ``any_c``, any Python value: a slack, or ``c`` refused by name."""
    end = spec.support_end
    ts = np.array([0.0, 0.5, 1e3, 1e300])
    if end < math.inf:
        ts = end * np.array([0.0, 0.25, 0.5, 0.75])
    ts = ts[ts < end]  # 0.75 * end rounds to end at the least double
    for evaluate in (spec.rate, spec.cumulative, spec.cdf, spec.survival):
        out = evaluate(ts)
        assert out.shape == ts.shape and not np.isnan(out).any(), evaluate.__name__
        assert type(evaluate(float(ts[-1]))) is float, evaluate.__name__
    assert not math.isnan(spec.min_slack(c, 0.0, end).value)
    try:
        slack = spec.min_slack(any_c, 0.0, end)
    except ValueError as exc:
        assert str(exc).startswith("c must be a finite real number, got "), str(exc)
    else:
        assert not math.isnan(slack.value)


@given(_constructions(), st.floats(1e-3, 10.0), _VALUES)
# the first two once raised Python's OverflowError, the third numpy's IndexError, the fourth
# numpy's ValueError for a ragged sequence
@example(("constant", {"rate0": 10**400}), 1.0, 1.0)
@example(("noise", {"c": 10**400, "lam": 1.0}), 1.0, 1.0)
@example(("custom", {"rate_fn": _CALLABLES["scalar"], "cumulative_fn": _CALLABLES["line"]}), 1.0,
         1.0)
@example(("custom", {"rate_fn": _CALLABLES["exp"], "cumulative_fn": _CALLABLES["exp"],
                     "turning_points": (0.0, np.array([]))}), 1.0, 1.0)
# segments once read as numbers (the first two), or leaking TypeError, OverflowError or an
# unnamed unpacking ValueError; then a c that gave a NaN slack, OverflowError or ComplexWarning
@example(("piecewise", {"segments": (("0", "1", "1"),)}), 1.0, 1.0)
@example(("piecewise", {"segments": ((0.0, True, 1.0),)}), 1.0, 1.0)
@example(("piecewise", {"segments": ((0.0, None, 1.0),)}), 1.0, 1.0)
@example(("piecewise", {"segments": ((0.0, 1j, 1.0),)}), 1.0, 1.0)
@example(("piecewise", {"segments": ((0.0, 10**400, 1.0),)}), 1.0, 1.0)
@example(("piecewise", {"segments": ((0.0, 1.0),)}), 1.0, 1.0)
@example(("piecewise", {"segments": 5}), 1.0, 1.0)
@example(("piecewise", {"segments": ()}), 1.0, 1.0)
@example(("constant", {"rate0": 2.0}), 1.0, math.nan)
@example(("constant", {"rate0": 2.0}), 1.0, 10**400)
@example(("constant", {"rate0": 2.0}), 1.0, 1j)
@settings(max_examples=200, deadline=None)
def test_construction_builds_or_refuses_by_name(construction, c, any_c):
    # a family built from any Python values evaluates to floats, never NaN, or a ValueError
    # names the argument (or the t) at fault; no numpy warning either way
    kind, args = construction
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            built = _build(kind, args)
            hash(built)
            if kind == "noise":
                assert all(type(v) is float and 0.0 < v < math.inf for v in (built.c, built.lam))
            else:
                _evaluate_all(built, c, any_c)
        except ValueError as exc:
            assert re.match(_REFUSALS[kind], str(exc)), (kind, str(exc))
    assert [str(w.message) for w in caught] == []
