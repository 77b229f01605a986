import functools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from telhaz.hazard import ConstantHazard, PiecewiseLinearHazard, PolynomialHazard
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
from conftest import math_band, oracle_path
from telhaz.telegraph import (
    TelegraphParams,
    mgf,
    sample_path,
    scaled_mgf,
    w_atom_prob,
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
    "integrate_path": lambda m, t: sample_path(m.noise, [t], 0),
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

    def test_dominance_past_checked_horizon_refused(self):
        # r(t) -> 1 < c as t grows, past the horizon and between the grid points
        # checked at build; R(t) < c*t there once overflowed math.expm1 in band
        model = PerturbedModel(HAZARDS["soft_step"], TelegraphParams(c=1.000002302587744, lam=1.0))
        calls = model.band, model.mean, model.variance, lambda t: model.sample_path_values([t], 0)
        for call in calls:
            with pytest.raises(ValueError, match=r"^dominance r\(t\) > c fails before t = 1e\+09 "):
                call(1e9)
        assert model.band(1e5).a > 0.0  # R(t) > c*t still holds there


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

    def test_width_condition_past_rate_overflow(self):
        # alpha t (t - 1)^2 overflows past t ~ 5.6e102: the rate is inf, silently
        hazard = HAZARDS["polynomial_c1"]
        model = PerturbedModel(hazard, TelegraphParams(0.5, 1e-100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hazard.rate(1e103) == math.inf
            assert hazard.min_slack(0.5, 1.0, 1e103) == (hazard.rate(1.0) - 0.5, 1.0)
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
        model = PerturbedModel(HAZARDS["soft_step"], TelegraphParams(c=1.000002302587744, lam=1.0))
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
        for seed in range(5):
            values = fig_model.sample_path_values(grid, seed=seed)
            assert values.shape == grid.shape
            assert values[0] == 0.0
            for t, x in zip(grid[1:].tolist(), values[1:].tolist()):
                band = fig_model.band(t)
                assert band.a - 1e-12 <= x <= band.b + 1e-12

    def test_paths_are_nondecreasing(self, fig_model):
        grid = np.linspace(0.0, 2.0, 301)
        for seed in range(5):
            values = fig_model.sample_path_values(grid, seed=seed)
            assert np.all(np.diff(values) >= -1e-14)

    def test_deterministic_per_seed(self, fig_model):
        grid = np.linspace(0.0, 1.0, 11)
        a = fig_model.sample_path_values(grid, seed=3)
        b = fig_model.sample_path_values(grid, seed=3)
        assert np.array_equal(a, b)

    def test_vanishing_amplitude_recovers_the_cdf(self):
        hazard = PolynomialHazard(15.0, 0.001, 1.0)
        model = PerturbedModel(hazard, TelegraphParams(c=1e-6, lam=15.0))
        grid = np.linspace(0.0, 2.0, 201)
        cdf = hazard.cdf(grid)
        for seed in (0, 1):
            values = model.sample_path_values(grid, seed=seed)
            assert float(np.max(np.abs(values - cdf))) < 1e-4

    def test_grid_validation(self, fig_model):
        for grid in ([], [0.0, -0.5], [0.0, 1.0, 0.5]):
            with pytest.raises(ValueError, match="grid"):
                fig_model.sample_path_values(grid, seed=0)
        end = PiecewiseLinearHazard(((0.0, 0.0, 2.0),), support_end=1.0)
        model = PerturbedModel(end, TelegraphParams(c=1.0, lam=1.0))
        with pytest.raises(ValueError, match=r"time_grid must lie in \[0, 1.0\), got 1.0"):
            model.sample_path_values([0.0, 1.0], seed=0)

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
