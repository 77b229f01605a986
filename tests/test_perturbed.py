import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from telhaz.estimation import Sample, hazard_estimate, kde
from telhaz.hazard import (
    ConstantHazard,
    CustomHazard,
    PiecewiseLinearHazard,
    PolynomialHazard,
    parse_hazard_config,
)
from telhaz.perturbed import PerturbedModel
from telhaz.presets import (
    FIG1_HORIZON,
    FIG2_HORIZONS,
    FIG3_TIMES,
    HAZARDS,
    model_fig1,
    model_fig2,
    model_fig3,
)
from conftest import bessel_density_oracle, math_band, oracle_path
from test_hazard import _hazards
from telhaz import telegraph
from telhaz.telegraph import (
    TelegraphParams,
    mgf,
    sample_paths,
    scaled_mgf,
    w_atom_prob,
    w_cdf,
    w_density,
)


@pytest.fixture(scope="module")
def fig_model():
    return model_fig3()  # c=1, lam=15, alpha=15, beta=0.001


# every entry point of the X(t) layer that takes a time t; x = 0.75 lies inside
# the fig3 band at t = 0.5 and t = 1
TIME_CALLS = {
    "rate": lambda m, t: m.hazard.rate(t),
    "cumulative": lambda m, t: m.hazard.cumulative(t),
    "band": lambda m, t: m.band(t),
    "density": lambda m, t: m.density(0.75, t),
    "cdf": lambda m, t: m.cdf(0.75, t),
    "atom_prob": lambda m, t: m.atom_prob(t),
    "mean": lambda m, t: m.mean(t),
    "variance": lambda m, t: m.variance(t),
    "band_width_nondecreasing": lambda m, t: m.band_width_nondecreasing(t),
    "sample_paths": lambda m, t: next(sample_paths(m.noise, [t], [0])),
    "mgf": lambda m, t: mgf(m.noise, 1.0, t),
    "scaled_mgf": lambda m, t: scaled_mgf(m.noise, -1.0, t, 0.0),
}


class TestTimeRule:
    @pytest.mark.parametrize("bad", [True, "0.5"])
    @pytest.mark.parametrize("name", sorted(TIME_CALLS))
    def test_non_real_time_rejected(self, fig_model, name, bad):
        with pytest.raises(ValueError, match=f"must be a real number, got {bad!r}"):
            TIME_CALLS[name](fig_model, bad)

    @pytest.mark.parametrize("t", [np.int64(1), np.float32(0.5)], ids=["int64", "float32"])
    @pytest.mark.parametrize("name", sorted(TIME_CALLS))
    def test_numpy_time_accepted(self, fig_model, name, t):
        assert TIME_CALLS[name](fig_model, t) == TIME_CALLS[name](fig_model, float(t))


_SAMPLE = Sample([1.0, 2.0, 3.0, 4.0])

# every real-valued argument besides times and parameters: (its name, a call with value v,
# values it accepts); x = 0.75 lies inside the fig3 band at t = 0.5
VALUE_CALLS = {
    "PerturbedModel.density": ("x", lambda m, v: m.density(v, 0.5), [0.75]),
    "PerturbedModel.cdf": ("x", lambda m, v: m.cdf(v, 0.5), [0.75]),
    "w_density": ("x", lambda m, v: w_density(m.noise, 0.05, v), [0.01]),
    "w_cdf": ("w", lambda m, v: w_cdf(m.noise, 0.05, v), [0.01]),
    "kde": ("t", lambda m, v: kde(_SAMPLE, 1.0, v), [2.5]),
    "hazard_estimate": ("t", lambda m, v: hazard_estimate(_SAMPLE, 1.0, v), [2.5]),
    "scaled_mgf": ("log_scale", lambda m, v: scaled_mgf(m.noise, -1.0, 0.5, v), [0.5]),
    "Sample": ("sample values", lambda m, v: Sample(v).values, [1.0, 2.0, 3.0]),
    # the same gate on unsorted values, which Sample sorts; the id is the one these cases
    # carried when a second constructor, since removed, took unsorted values
    "Sample.from_values": ("sample values", lambda m, v: Sample(v).values, [3.0, 1.0, 2.0]),
}


class TestValueRule:
    @pytest.mark.parametrize(
        "bad", ["a", "0.5", True, np.array([True]), None, 1j, [0.1, [0.2]],
                [0.5, True], (0.5, np.True_), [[0.5], [True]]],
        ids=["str", "numeric-str", "bool", "bool-array", "none", "complex", "ragged",
             "bool-in-list", "numpy-bool-in-tuple", "bool-in-nested-list"],
    )
    @pytest.mark.parametrize("call", sorted(VALUE_CALLS))
    def test_non_real_value_refused_by_name(self, fig_model, call, bad):
        name, evaluate, _ = VALUE_CALLS[call]
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            evaluate(fig_model, bad)

    @pytest.mark.parametrize("call", sorted(VALUE_CALLS))
    def test_object_array_of_reals_accepted(self, fig_model, call):
        _, evaluate, values = VALUE_CALLS[call]
        expected = evaluate(fig_model, np.array(values))
        taken = evaluate(fig_model, np.array(values, dtype=object))
        np.testing.assert_array_equal(taken, expected)


class TestConstruction:
    def test_dominance_enforced(self):
        hazard = PolynomialHazard(15.0, 0.001, 1.0)  # min rate 1.001
        with pytest.raises(ValueError):
            PerturbedModel(hazard, TelegraphParams(c=1.5, lam=1.0))
        PerturbedModel(hazard, TelegraphParams(c=1.0, lam=1.0))  # boundary passes

    def test_dominance_checked_between_grid_points(self):
        # r(1) = 2, then r = 0.5 just after the breakpoint
        hazard = PiecewiseLinearHazard(((0.0, 0.0, 2.0), (1.0, 0.0, 0.5)))
        with pytest.raises(ValueError, match=r"fails at t = 1 \("):
            PerturbedModel(hazard, TelegraphParams(c=1.0, lam=1.0))

    def test_dominance_checked_past_last_breakpoint(self):
        # r = 0.5 < c after t = 100, far past the 1e-6 tail of R (about t = 6.9): once
        # built, and its band printed up to t = 150
        dip = PiecewiseLinearHazard(((0.0, 0.0, 2.0), (100.0, 0.0, 0.5)))
        with pytest.raises(ValueError, match=r"^dominance r\(t\) > c fails at t = 100 "):
            PerturbedModel(dip, TelegraphParams(c=1.0, lam=1.0))
        step = PiecewiseLinearHazard(((0.0, 0.0, 2.0), (100.0, 0.0, 1.5)))
        assert PerturbedModel(step, TelegraphParams(c=1.0, lam=1.0)).band(150.0).a > 0.0

    def test_unknown_band_case_refused(self):
        with pytest.raises(ValueError, match="^unknown band case 'd'; expected 'a', 'b' or 'c'$"):
            model_fig2("d")

    @pytest.mark.parametrize("c", [1.0 + 1e-12, 1.000002])
    def test_soft_step_refused_above_its_limits(self, c):
        # r(0) = 1 and r(t) -> 1 as t grows: c = 1 builds (fig2 (c)), no c above it does
        message = rf"^dominance r\(t\) > c fails at t = 0 \(c = {re.escape(repr(c))}\)$"
        with pytest.raises(ValueError, match=message):
            PerturbedModel(HAZARDS["soft_step"], TelegraphParams(c=c, lam=1.0))

    def test_flat_rate_at_c_refused_by_probe(self):
        # r = c everywhere: both open ends are limits at c, the probe between them is not
        for hazard, t in ((ConstantHazard(1.0), "1"), (ConstantHazard(1.0, support_end=4.0), "2")):
            with pytest.raises(ValueError, match=rf"^dominance r\(t\) > c fails at t = {t} "):
                PerturbedModel(hazard, TelegraphParams(c=1.0, lam=1.0))

    @pytest.mark.parametrize("segments, t", [("0:1:1", 0.0), ("0:0:2; 1:1:0", 1.0)])
    def test_rate_at_c_only_as_a_limit_accepted(self, segments, t):
        # r = 1 + t; and r = 2, then r = t past t = 1: r -> c = 1 as t -> 0+ or 1+, never reached
        hazard = parse_hazard_config(f"kind = piecewise\nsegments = {segments}\n")
        model = PerturbedModel(hazard, TelegraphParams(c=1.0, lam=1.0))
        assert model.slack == (0.0, t, False) and model.slack.holds

    def test_dominance_past_checked_horizon_refused(self):
        # a pair that breaks its contract passes the check at build; R(t) < c*t
        # at 1e9 once overflowed math.expm1 in band
        model = PerturbedModel(_BROKEN, TelegraphParams(c=_BROKEN_C, lam=1.0))
        calls = (model.band, model.mean, model.variance, model.atom_prob,
                 lambda t: model.sample_paths([t], []))
        for call in calls:
            with pytest.raises(ValueError, match=r"^dominance r\(t\) > c fails before t = 1e\+09 "):
                call(1e9)
        assert model.band(1e5).a > 0.0  # R(t) > c*t still holds there


class TestNanClosedForm:
    # r = 2, and an R that turns NaN past t = 1: refused by name, not carried on as NaN
    HAZARD = CustomHazard(lambda t: np.full_like(t, 2.0), lambda t: np.where(t > 1, np.nan, 2 * t))
    NAN_AT_2 = "^cumulative hazard is NaN at t = 2.0$"

    @pytest.fixture
    def model(self):
        return PerturbedModel(self.HAZARD, TelegraphParams(1.0, 1.0))

    def test_band(self, model):
        with pytest.raises(ValueError, match=self.NAN_AT_2):
            model.band(2.0)
        assert math.isfinite(model.band(1.0).width)

    def test_mean(self, model):
        with pytest.raises(ValueError, match=self.NAN_AT_2):
            model.mean([0.5, 2.0])
        assert math.isfinite(model.mean(0.5))

    def test_paths(self, model):
        # refused by the call, before any path is drawn
        with pytest.raises(ValueError, match=self.NAN_AT_2):
            model.sample_paths([0.0, 0.5, 2.0, 3.0], [])
        assert np.all(np.isfinite(next(model.sample_paths([0.0, 0.5, 1.0], [0]))))

    def test_total_excess_hazard(self):
        # r = 1 + exp(-t) tends to c = 1, so nu is doubled for, and met R = NaN at T = 2
        hazard = CustomHazard(lambda t: 1.0 + np.exp(-t),
                              lambda t: np.where(t > 1, np.nan, t - np.expm1(-t)))
        model = PerturbedModel(hazard, TelegraphParams(1.0, 1.0))
        assert model.slack == (0.0, math.inf, False)
        with pytest.raises(ValueError, match=self.NAN_AT_2):
            model.total_excess_hazard


# a pair that breaks its contract: r = 2 > c, but R is soft_step's, which falls below
# c*t between t = 1e5 and 1e9
_BROKEN = CustomHazard(lambda t: np.full_like(t, 2.0), HAZARDS["soft_step"].cumulative_fn)
_BROKEN_C = 1.000002302587744

# R(t) = t + a part whose excess nu over c = 1 converges slowly (to 1.3, 0.7) or not at
# all: R(T) - T cancels to its last digits long before it settles, and once read 0.0,
# 0.699999988, 36.0 and 3.5
_CANCELLING = {
    "nu-1.3": (lambda t: 1.0 + 1.3 / (1.0 + t) ** 2, lambda t: t + 1.3 * t / (1.0 + t)),
    "nu-0.7": (lambda t: 1.0 + 0.7 / (1.0 + t) ** 2, lambda t: t + 0.7 * t / (1.0 + t)),
    "log1p": (lambda t: 1.0 + 1.0 / (1.0 + t), lambda t: t + np.log1p(t)),
    "loglog": (lambda t: 1.0 + 1.0 / ((np.e + t) * np.log(np.e + t)),
               lambda t: t + np.log(np.log(np.e + t))),
}
_NOT_SETTLED = r"^nu = R\(T\) - c\*T does not converge in double precision: it has not settled at "

# r and R both NaN past t = 1
_NAN_PAST_1 = CustomHazard(lambda t: np.where(t > 1, np.nan, 2.0),
                           lambda t: np.where(t > 1, np.nan, 2.0 * t))

# a refusal site of each kind, given its failing times out of order, and the error naming the
# least of them
LEAST_T_REFUSALS = {
    "rate": (lambda: _NAN_PAST_1.rate([3.0, 0.5, 2.0]), "rate is NaN at t = 2.0"),
    "cumulative": (lambda: _NAN_PAST_1.cumulative(np.array([[3.0, 0.5], [1.5, 2.0]])),
                   "cumulative hazard is NaN at t = 1.5"),
    # f_hat = k(0) / (n h) is inf at the lifetimes 4, 1 and 2
    "kde": (lambda: kde(_SAMPLE, 1e-310, [4.0, 1.0, 2.5, 2.0]),
            "bandwidth 1e-310 is too small: f_hat overflows at t = 1"),
    "mgf": (lambda: mgf(TelegraphParams(1.0, 15.0), 1000.0, [2.0, 1.0]),
            "E[exp(s W(t))] overflows at c = 1.0, lam = 15.0, s = 1000.0, t = 1.0"),
    "band": (lambda: PerturbedModel(_BROKEN, TelegraphParams(_BROKEN_C, 1.0)).band([1e10, 1e9]),
             f"dominance r(t) > c fails before t = 1e+09 (c = {_BROKEN_C})"),
}


@pytest.mark.parametrize("site", sorted(LEAST_T_REFUSALS))
def test_refusal_names_least_t(site):
    call, message = LEAST_T_REFUSALS[site]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestBand:
    def test_degenerate_at_zero(self, fig_model):
        band = fig_model.band(0.0)
        assert band.a == 0.0 and band.b == 0.0 and band.width == 0.0

    def test_brackets_the_cdf_strictly(self, fig_model):
        for t in np.linspace(0.05, 2.0, 30):
            band = fig_model.band(float(t))
            cdf = fig_model.hazard.cdf(float(t))
            assert band.a < cdf < band.b
            assert band.width == pytest.approx(band.b - band.a, rel=1e-10, abs=1e-15)

    def test_terminal_width_limits(self):
        # positive limit only when the excess hazard mass stays integrable
        assert model_fig2("a").terminal_band_width() == 0.0
        assert model_fig2("b").terminal_band_width() == 0.0
        soft = model_fig2("c")
        nu_exact = 3.0 * math.pi / 4.0 - 1.5 * math.log(2.0)  # closed-form integral
        assert soft.total_excess_hazard == pytest.approx(nu_exact, rel=1e-10)
        assert soft.terminal_band_width() == pytest.approx(math.exp(-nu_exact), rel=1e-10)

    def test_excess_hazard_of_positive_slack_is_infinite(self):
        # r - c = 1e-15 for ever: nu = inf at once, where the doubling once settled at 4.0e-15
        model = PerturbedModel(ConstantHazard(1.0), TelegraphParams(c=1.0 - 1e-15, lam=1.0))
        assert model.total_excess_hazard == math.inf

    def test_excess_hazard_of_finite_support_is_infinite(self):
        model = PerturbedModel(ConstantHazard(1.0, support_end=5.0), TelegraphParams(0.5, 1.0))
        assert model.total_excess_hazard == math.inf

    @pytest.mark.parametrize("c", [0.999, 0.9999, 1.0 - 1e-10])
    def test_slowly_diverging_excess_hazard_is_infinite(self, c):
        # nu = (1 - c) T reaches the cap long after c*T has lost its 1e-12 digit
        model = PerturbedModel(ConstantHazard(1.0), TelegraphParams(c=c, lam=1.0))
        assert model.total_excess_hazard == math.inf

    @pytest.mark.parametrize("name", sorted(_CANCELLING))
    def test_excess_hazard_refused_where_it_cancels(self, name):
        rate, cumulative = _CANCELLING[name]
        model = PerturbedModel(CustomHazard(rate, cumulative), TelegraphParams(c=1.0, lam=1.0))
        with pytest.raises(ValueError, match=_NOT_SETTLED + r"c = 1\.0, T = \d+\.0$"):
            model.total_excess_hazard

    def test_excess_hazard_refused_before_horizon_overflows(self):
        # c * T keeps its digits up to the largest power of 2, where nu = 10 sqrt(log1p(T))
        # still grows; the next doubling would ask for R(inf)
        c = 5e-324
        hazard = CustomHazard(lambda t: c + 5.0 / ((1.0 + t) * np.sqrt(np.log1p(t))),
                              lambda t: c * t + 10.0 * np.sqrt(np.log1p(t)))
        model = PerturbedModel(hazard, TelegraphParams(c=c, lam=1.0))
        last = re.escape(f"c = 5e-324, T = {2.0**1023!r}")
        with pytest.raises(ValueError, match=_NOT_SETTLED + last + "$"):
            model.total_excess_hazard

    def test_band_approaches_its_limits(self):
        soft = model_fig2("c")
        nu = soft.total_excess_hazard
        band = soft.band(30.0)
        assert band.a == pytest.approx(-math.expm1(-nu), abs=1e-9)
        assert band.b == pytest.approx(1.0, abs=1e-12)

    def test_width_condition_flips_for_bimodal_case(self):
        model = model_fig2("a")
        ts = np.linspace(1e-3, 2.0, 400)
        flags = np.array([model.band_width_nondecreasing(float(t)) for t in ts])
        assert flags[0]
        assert np.count_nonzero(flags[1:] != flags[:-1]) >= 1

    def test_width_condition_eventually_false_for_growing_rate(self):
        model = model_fig2("b")  # rate 1 + e^t
        for t in np.linspace(0.5, 3.0, 12):
            assert not model.band_width_nondecreasing(float(t))

    def test_width_condition_rejects_origin(self, fig_model):
        with pytest.raises(ValueError):
            fig_model.band_width_nondecreasing(0.0)

    def test_width_condition_refuses_an_array_by_name(self, fig_model):
        # as atom_prob does; a scalar's refusals keep their own messages
        for call in (fig_model.band_width_nondecreasing, fig_model.atom_prob):
            with pytest.raises(ValueError, match=r"^t must be a real number, got array\(\[0.5, 1. \]\)$"):
                call(np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match=r"^t must lie in \[0, inf\), got -1.0$"):
            fig_model.band_width_nondecreasing(-1.0)
        with pytest.raises(ValueError, match=r"^t must be > 0, got 0.0$"):
            fig_model.band_width_nondecreasing(0)

    def test_width_condition_past_rate_overflow(self):
        # alpha t (t - 1)^2 overflows past t ~ 5.6e102: the rate is inf, silently
        hazard = HAZARDS["polynomial_c1"]
        model = PerturbedModel(hazard, TelegraphParams(0.5, 1e-100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hazard.rate(1e103) == math.inf
            assert hazard.min_slack(0.5, 1.0, 1e103) == (hazard.rate(1.0) - 0.5, 1.0, False)
            assert not model.band_width_nondecreasing(1e103)

    def test_bimodal_width_has_two_local_maxima(self):
        model = model_fig2("a")
        ts = np.linspace(1e-3, 2.5, 1500)
        width = np.array([model.band(float(t)).width for t in ts])
        interior = (width[1:-1] > width[:-2]) & (width[1:-1] > width[2:])
        assert np.count_nonzero(interior) == 2



# the fig1 model and the three fig2 cases, with the horizons of their figures
FIGURE_MODELS = {
    "fig1": (model_fig1, FIG1_HORIZON),
    **{case: (functools.partial(model_fig2, case), FIG2_HORIZONS[case]) for case in "abc"},
}


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype == np.float64 and x.tobytes() == y.tobytes()


class TestBandOverArray:
    @pytest.mark.parametrize(
        "name, points", [*((case, n) for case in "abc" for n in (401, 20_001)), ("fig1", 401)]
    )
    def test_figure_grids_match_scalar_calls(self, name, points):
        build, horizon = FIGURE_MODELS[name]
        model = build()
        grid = np.linspace(0.0, horizon, points)
        band = model.band(grid)
        scalar = [model.band(t) for t in grid.tolist()]
        assert same_bits(band.t, grid)
        for field in ("a", "b", "width"):
            assert same_bits(getattr(band, field), np.array([getattr(b, field) for b in scalar]))

    @pytest.mark.parametrize("name", sorted(FIGURE_MODELS))
    def test_scalar_calls_match_math_formulas(self, name):
        build, horizon = FIGURE_MODELS[name]
        model = build()
        for t in np.linspace(0.0, horizon, 401).tolist():
            band = model.band(t)
            assert same_bits(np.array([band.a, band.b, band.width]), np.array(math_band(model, t)))

    @pytest.mark.parametrize("t", [0.5, np.float64(0.5), np.array(0.5)], ids=["float", "f64", "0d"])
    def test_scalar_time_gives_floats(self, fig_model, t):
        band = fig_model.band(t)
        assert all(type(value) is float for value in (band.t, band.a, band.b, band.width))
        pair = fig_model.band(np.array([0.5, 1.0]))
        assert (band.a, band.b, band.width) == (pair.a[0], pair.b[0], pair.width[0])

    def test_shape_kept(self, fig_model):
        times = np.linspace(0.0, 2.0, 6).reshape(2, 3)
        band = fig_model.band(times)
        assert band.a.shape == band.b.shape == band.width.shape == band.t.shape == (2, 3)
        assert same_bits(band.width.ravel(), fig_model.band(times.ravel()).width)

    def test_dominance_refusal_same_as_scalar(self):
        # the model of test_dominance_past_checked_horizon_refused: R(t) < c*t at 1e9
        model = PerturbedModel(_BROKEN, TelegraphParams(c=_BROKEN_C, lam=1.0))
        with pytest.raises(ValueError) as scalar:
            model.band(1e9)
        with pytest.raises(ValueError) as array:
            model.band(np.array([1e5, 1e9, 1e10]))
        assert str(array.value) == str(scalar.value)
        assert str(scalar.value).startswith("dominance r(t) > c fails before t = 1e+09 ")

    def test_overflowing_ct_refusal_same_as_scalar(self):
        # c * t passes the double range from the second point on
        model = PerturbedModel(ConstantHazard(1e250), TelegraphParams(c=1.24e111, lam=2.6e-183))
        grid = np.linspace(0.0, 4.98e285, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as scalar:
                model.band(float(grid[1]))
            with pytest.raises(ValueError) as array:
                model.band(grid)
        assert str(array.value) == str(scalar.value)
        assert str(scalar.value) == (
            "c = 1.24e+111 up to t = 1.245e+285 lets |W| reach c * t = inf; it must be finite"
        )
        assert model.band(float(grid[0])).width == 0.0  # t = 0 stays finite


class TestAtomsAndDensity:
    def test_atom_matches_integrated_noise_atom(self, fig_model):
        for t in (0.0, 0.3, 1.0):
            assert fig_model.atom_prob(t) == w_atom_prob(fig_model.noise, t)
        assert fig_model.atom_prob(0.0) == 0.5
        assert fig_model.atom_prob(0.5) == pytest.approx(0.5 * math.exp(-7.5), rel=1e-14)

    def test_density_rejects_endpoints_and_outside(self, fig_model):
        band = fig_model.band(1.0)
        for x in (band.a, band.b, band.a - 0.01, band.b + 0.01, math.nan):
            with pytest.raises(ValueError, match="x must lie strictly inside the band"):
                fig_model.density(x, 1.0)
        with pytest.raises(ValueError, match=r"^t must be finite and > 0, got 0\.0$"):
            fig_model.density(0.5, 0.0)

    def test_change_of_variables_against_w_density(self, fig_model):
        # f_X(x) = f_W(log(survival/(1-x))) / (1 - x): two separate code paths
        t = 0.7
        band = fig_model.band(t)
        surv = fig_model.hazard.survival(t)
        for x in np.linspace(band.a + 1e-3, band.b - 1e-3, 9):
            w = math.log(surv / (1.0 - x))
            expected = w_density(fig_model.noise, t, w) / (1.0 - x)
            assert fig_model.density(float(x), t) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("t", FIG3_TIMES)
    def test_normalization(self, fig_model, t):
        band = fig_model.band(t)
        interior, _ = integrate.quad(
            lambda x: fig_model.density(x, t), band.a, band.b,
            epsabs=1e-10, epsrel=1e-10, limit=300,
        )
        assert 2.0 * fig_model.atom_prob(t) + interior == pytest.approx(1.0, abs=1e-6)

    def test_boundary_limits_within_one_percent(self, fig_model):
        lam, c = fig_model.noise.lam, fig_model.noise.c
        t = 0.25
        band = fig_model.band(t)
        surv = fig_model.hazard.survival(t)
        shared = lam / (2.0 * c * surv) * (1.0 + lam * t / 2.0)
        lower_limit = shared * math.exp(-(lam + c) * t)
        upper_limit = shared * math.exp(-(lam - c) * t)
        assert fig_model.density(band.a + 1e-4, t) == pytest.approx(lower_limit, rel=0.01)
        assert fig_model.density(band.b - 1e-4, t) == pytest.approx(upper_limit, rel=0.01)

    def test_boundary_limits_tighten_with_offset(self, fig_model):
        # the 1e-4 offset has a genuine O(offset) deviation; halving the
        # offset must halve the error, confirming the closed-form limit
        lam, c = fig_model.noise.lam, fig_model.noise.c
        t = 1.0
        band = fig_model.band(t)
        surv = fig_model.hazard.survival(t)
        limit = lam / (2.0 * c * surv) * (1.0 + lam * t / 2.0) * math.exp(-(lam - c) * t)
        errors = [
            abs(fig_model.density(band.b - off, t) - limit) / limit
            for off in (8e-5, 2e-5, 5e-6)
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.01


class TestDensityBlocks:
    """The model density's block walk against the whole-array oracle, byte for byte."""

    BLOCK = telegraph._DENSITY_BLOCK

    @pytest.mark.parametrize("t", [0.5, 2.0])  # z up to 7.5 and 30
    @pytest.mark.parametrize(
        "shape", [(BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (3 * BLOCK + 5,), (129, 131)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_matches_oracle_bytes(self, fig_model, shape, t):
        band = fig_model.band(t)
        x = np.random.default_rng(shape[0]).uniform(band.a, band.b, shape)
        # u and the jacobian 1 - x as the density forms them
        one_minus = 1.0 - x
        u = np.log((1.0 - band.a) / one_minus) * np.log(one_minus / (1.0 - band.b))
        got = fig_model.density(x, t)
        want = bessel_density_oracle(fig_model.noise, band.t, u, one_minus)
        assert got.shape == want.shape == shape
        assert got.tobytes() == want.tobytes()

    def test_memory_bounded(self, fig_model):
        # the whole-array evaluation peaked at ~10.1x the output's 8 MB
        band = fig_model.band(0.5)
        x = np.random.default_rng(1).uniform(band.a, band.b, 1_000_000)
        tracemalloc.start()
        try:
            out = fig_model.density(x, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * out.nbytes


class TestCdf:
    def test_atom_at_lower_endpoint(self, fig_model):
        t = 1.0
        band = fig_model.band(t)
        assert fig_model.cdf(band.a, t) == pytest.approx(fig_model.atom_prob(t), rel=1e-9)
        assert fig_model.cdf(band.a - 1e-9, t) == 0.0
        assert fig_model.cdf(band.b, t) == 1.0
        assert fig_model.cdf(band.b + 1e-9, t) == 1.0

    def test_degenerate_time_zero(self, fig_model):
        assert fig_model.cdf(-0.5, 0.0) == 0.0
        assert fig_model.cdf(0.0, 0.0) == 1.0

    def test_array_matches_scalars(self, fig_model):
        t = 1.0
        band = fig_model.band(t)
        xs = np.array([band.a - 1e-9, band.a, 0.5 * (band.a + band.b), band.b, 1.0, 2.0])
        values = fig_model.cdf(xs, t)
        assert values.tolist() == [fig_model.cdf(float(x), t) for x in xs]
        assert values[0] == 0.0 and values[-3:].tolist() == [1.0, 1.0, 1.0]
        assert isinstance(fig_model.cdf(0.5, t), float)

    def test_monotone_and_matches_density_integral(self, fig_model):
        t = 0.5
        band = fig_model.band(t)
        xs = np.linspace(band.a + 1e-6, band.b - 1e-6, 7)
        values = fig_model.cdf(xs, t)
        assert np.all(np.diff(values) >= 0.0)
        for x, value in zip(xs[::3], values[::3]):
            interior, _ = integrate.quad(
                lambda y: fig_model.density(y, t), band.a, float(x),
                epsabs=1e-10, epsrel=1e-10, limit=300,
            )
            assert value == pytest.approx(fig_model.atom_prob(t) + interior, abs=1e-6)

    @pytest.mark.parametrize("lam", [1e12, 1e300])
    def test_switch_budget_named(self, lam):
        # the mixture behind cdf is refused by name past 2**30 expected switches
        model = PerturbedModel(ConstantHazard(2.0), TelegraphParams(c=1.0, lam=lam))
        with pytest.raises(
            ValueError, match=r"^lam = .* up to t = 1\.0 expects .* switches; at most 2\*\*30"
        ):
            model.cdf(0.5, 1.0)

    def test_nan_refused_by_name_inf_exact(self, fig_model):
        for x in (math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"^x must not be NaN$"):
                fig_model.cdf(x, 0.5)
        assert fig_model.cdf([-math.inf, math.inf], 0.5).tolist() == [0.0, 1.0]
        assert (fig_model.cdf(-math.inf, 0.0), fig_model.cdf(math.inf, 0.0)) == (0.0, 1.0)

    def test_overflowed_cumulative_gives_the_limits(self):
        # R(1e103) overflows to inf: a degenerate band at 1 and X(t) = 1 surely
        model = PerturbedModel(HAZARDS["polynomial_c1"], TelegraphParams(0.5, 1e-100))
        band = model.band(1e103)
        assert (band.a, band.b, band.width) == (1.0, 1.0, 0.0)
        assert model.cdf(0.5, 1e103) == 0.0
        assert (model.mean(1e103), model.variance(1e103)) == (1.0, 0.0)

    def test_convergence_in_probability_to_one(self, fig_model):
        threshold = 1.0 - 1e-4
        probs = [fig_model.cdf(threshold, t) for t in (0.75, 1.0, 1.5, 2.0)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert probs[-1] < 1e-6


class TestMoments:
    def test_zero_at_origin(self, fig_model):
        assert fig_model.mean(0.0) == 0.0
        assert fig_model.variance(0.0) == 0.0

    def test_frozen_values_against_plain_formula(self, fig_model):
        # direct cosh/sinh evaluation, independent of the scaled code path
        lam, c = 15.0, 1.0
        for t in (0.5, 1.0, 2.0):
            surv = fig_model.hazard.survival(t)
            om1 = math.sqrt(lam**2 + c**2)
            om2 = math.sqrt(lam**2 + 4 * c**2)
            m1 = math.exp(-lam * t) * (math.cosh(t * om1) + lam / om1 * math.sinh(t * om1))
            m2 = math.exp(-lam * t) * (math.cosh(t * om2) + lam / om2 * math.sinh(t * om2))
            assert fig_model.mean(t) == pytest.approx(1.0 - surv * m1, rel=1e-10)
            assert fig_model.variance(t) == pytest.approx(surv**2 * (m2 - m1**2), rel=1e-7)

    def test_long_time_limits(self, fig_model):
        assert fig_model.mean(2.0) == pytest.approx(1.0, abs=1e-3)
        assert fig_model.variance(2.0) == pytest.approx(0.0, abs=1e-3)

    def test_mean_increasing_in_time(self, fig_model):
        ts = np.concatenate([np.geomspace(1e-3, 2.5, 512), np.array(FIG3_TIMES)])
        ts.sort()
        means = fig_model.mean(ts)
        assert np.all(np.diff(means) > -1e-14)

    def test_mean_decreasing_in_amplitude(self):
        hazard = PolynomialHazard(15.0, 0.001, 1.0)  # fixed baseline
        for t in (0.5, 1.0):
            means = [
                PerturbedModel(hazard, TelegraphParams(c=c, lam=15.0)).mean(t)
                for c in (0.25, 0.5, 1.0)
            ]
            assert means[0] >= means[1] >= means[2]
            assert means[0] > means[2]

    def test_variance_nonnegative_on_grid(self, fig_model):
        ts = np.linspace(0.0, 2.5, 200)
        assert np.all(fig_model.variance(ts) >= 0.0)


class TestSamplePaths:
    def test_paths_start_at_zero_and_stay_in_band(self, fig_model):
        grid = np.linspace(0.0, 1.0, 101)
        for values in fig_model.sample_paths(grid, range(5)):
            assert values.shape == grid.shape
            assert values[0] == 0.0
            for t, x in zip(grid[1:].tolist(), values[1:].tolist()):
                band = fig_model.band(t)
                assert band.a <= x <= band.b

    def test_paths_on_a_band_edge_stay_inside(self):
        # at lam = 1e-300 no path switches: each runs along a(t) or b(t), where np.expm1 and
        # the band's math.expm1 differ by 1 ulp at about one value in twenty
        model = PerturbedModel(HAZARDS["polynomial_c2"], TelegraphParams(c=1.0, lam=1e-300))
        grid = np.linspace(0.0, 1.0, 2001)
        band = model.band(grid)
        x = np.array(list(model.sample_paths(grid, range(20))))
        assert int(np.sum(x < band.a)) == 0 and int(np.sum(x > band.b)) == 0
        assert np.all(x[:, 0] == 0.0) and not np.signbit(x[:, 0]).any()  # a(0) is -0.0

    def test_paths_are_nondecreasing(self, fig_model):
        grid = np.linspace(0.0, 2.0, 301)
        for values in fig_model.sample_paths(grid, range(5)):
            assert np.all(np.diff(values) >= -1e-14)

    def test_deterministic_per_seed(self, fig_model):
        grid = np.linspace(0.0, 1.0, 11)
        a, b = fig_model.sample_paths(grid, [3, 3])
        assert np.array_equal(a, b)
        assert np.array_equal(next(fig_model.sample_paths(grid, [3])), a)

    def test_vanishing_amplitude_recovers_the_cdf(self):
        hazard = PolynomialHazard(15.0, 0.001, 1.0)
        model = PerturbedModel(hazard, TelegraphParams(c=1e-6, lam=15.0))
        grid = np.linspace(0.0, 2.0, 201)
        cdf = hazard.cdf(grid)
        for values in model.sample_paths(grid, (0, 1)):
            assert float(np.max(np.abs(values - cdf))) < 1e-4

    def test_grid_validation(self, fig_model):
        # refused by the call, before any path is drawn: also for no seeds
        for grid in ([], [0.0, -0.5], [0.0, 1.0, 0.5]):
            with pytest.raises(ValueError, match="grid"):
                fig_model.sample_paths(grid, [])
        end = PiecewiseLinearHazard(((0.0, 0.0, 2.0),), support_end=1.0)
        model = PerturbedModel(end, TelegraphParams(c=1.0, lam=1.0))
        with pytest.raises(ValueError, match=r"time_grid must lie in \[0, 1.0\), got 1.0"):
            model.sample_paths([0.0, 1.0], [])

    def test_cumulative_hazard_built_once_per_call(self):
        # R(grid) is built once, whatever the number of paths, and the paths are the noise's
        calls = []

        def cumulative(t):
            calls.append(np.size(t))
            return 2.0 * np.asarray(t)

        hazard = CustomHazard(lambda t: np.full(np.shape(t), 2.0), cumulative)
        model = PerturbedModel(hazard, TelegraphParams(c=1.0, lam=15.0))
        grid = np.linspace(0.0, 1.0, 11)
        calls.clear()
        paths = list(model.sample_paths(grid, range(5)))
        assert calls == [grid.size]
        for x, w in zip(paths, sample_paths(model.noise, grid, range(5)), strict=True):
            assert np.array_equal(x, -np.expm1(-(2.0 * grid + w)))

    def test_noise_sign_balance_at_late_times(self):
        # P{V(t) = +c} is 1/2 for every t thanks to the fair initial flip
        model = model_fig1()
        n = 4000
        t = 0.9
        positive = 0
        for seed in range(n):
            sign, events = oracle_path(model.noise, 1.0, seed)
            switches = sum(1 for e in events if e <= t)
            positive += sign * (-1) ** switches > 0
        sigma = math.sqrt(0.25 / n)
        assert abs(positive / n - 0.5) < 3.0 * sigma



_LOG10 = st.floats(-300.0, 300.0)  # log10 of a parameter or a time
# a refusal names the argument at fault: the amplitude, the rate, a time or a point
_NAMED = re.compile(r"\b(c|lam|t|x|time_grid)( = | must )")


def _value_or_named_refusal(name: str, call):
    """``call()``, or None where it raises a ValueError that names an argument; unwarned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except ValueError as exc:
            assert _NAMED.search(str(exc)), (name, str(exc))
            out = None
    assert [str(w.message) for w in caught] == [], name
    return out


@given(_hazards(), st.floats(-30.0, 1.0), _LOG10, _LOG10)
@settings(max_examples=200, deadline=None)
def test_model_methods_return_finite_or_refuse_by_name(hazard, c, lam, t):
    # the X(t) twin of test_public_functions_return_finite_or_refuse_by_name, on drawn
    # hazards; a finite support is read at a fraction of its end
    noise = TelegraphParams(c=10.0**c, lam=10.0**lam)
    t = hazard.support_end * 10.0 ** min(t, 0.0) / 2.0 if hazard.support_end < math.inf else 10.0**t
    model = _value_or_named_refusal("build", lambda: PerturbedModel(hazard, noise))
    if model is None:
        return
    band = _value_or_named_refusal("band", lambda: model.band(t))
    assert band is None or np.all(np.isfinite(band))
    a, b = (0.5, 0.5) if band is None else (band.a, band.b)
    calls = {
        "density": lambda: model.density(0.5 * (a + b), t),
        "mean": lambda: model.mean(t),
        "variance": lambda: model.variance(t),
        "atom_prob": lambda: model.atom_prob(t),
    }
    lam_t = noise.lam * t
    if lam_t <= 1e4:
        calls["cdf"] = lambda: model.cdf([-np.inf, 0.0, a, 0.5 * (a + b), b, 1.0, np.inf], t)
    if not 1e5 < lam_t <= 2.0**30:  # drawing up to 2^30 switches is slow, not wrong
        calls["sample_paths"] = lambda: next(model.sample_paths([0.0, 0.5 * t, t], [0]))
    for name, call in calls.items():
        out = _value_or_named_refusal(name, call)
        assert out is None or np.all(np.isfinite(out)), name
        assert name != "cdf" or out is None or np.all((0.0 <= out) & (out <= 1.0)), name
