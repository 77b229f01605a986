import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import direct_kde, full_density, matrix_kde, where_cdf
from telhaz.datasets import builtin
from telhaz.estimation import (
    _BLOCK,
    EPANECHNIKOV,
    BandConfig,
    Sample,
    UpperTailError,
    confidence_band,
    defensibility_test,
    hazard_estimate,
    kde,
)
from telhaz.hazard import ConstantHazard, PiecewiseLinearHazard
from telhaz.presets import APP1, APP2

SQRT5 = math.sqrt(5.0)


@pytest.fixture(scope="module")
def melanoma():
    return builtin("melanoma_46").sample


@pytest.fixture(scope="module")
def service():
    return builtin("service_86").sample


class TestKernel:
    def test_point_values(self):
        assert float(EPANECHNIKOV.density(0.0)) == pytest.approx(3.0 / (4.0 * SQRT5), rel=1e-15)
        assert float(EPANECHNIKOV.density(SQRT5)) == 0.0
        assert float(EPANECHNIKOV.density(-SQRT5)) == 0.0
        assert float(EPANECHNIKOV.density(3.0)) == 0.0

    def test_cdf_limits(self):
        assert float(EPANECHNIKOV.cdf(-SQRT5)) == pytest.approx(0.0, abs=1e-15)
        assert float(EPANECHNIKOV.cdf(SQRT5)) == pytest.approx(1.0, abs=1e-15)
        assert float(EPANECHNIKOV.cdf(0.0)) == 0.5

    @pytest.mark.parametrize(
        "method, oracle", [("cdf", where_cdf), ("density", full_density)], ids=["cdf", "density"]
    )
    def test_bit_identical_to_full_formula(self, method, oracle):
        evaluate = getattr(EPANECHNIKOV, method)
        edges = [SQRT5, -SQRT5]
        edges += [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
        u = np.array([*edges, np.inf, -np.inf, np.nan, 0.0, -1e-300])
        u = np.concatenate([u, np.random.default_rng(4).uniform(-3.0, 3.0, 1000)])
        assert np.array_equal(evaluate(u), oracle(u), equal_nan=True)
        for value in u[:11].tolist():
            out = evaluate(value)
            assert out.shape == ()
            assert np.array_equal(out, oracle(value), equal_nan=True)
            assert np.array_equal(float(out), oracle(value), equal_nan=True)

    def test_l2_constant_closed_form_vs_quadrature(self):
        numeric, _ = integrate.quad(
            lambda u: float(EPANECHNIKOV.density(u)) ** 2, -SQRT5, SQRT5, epsabs=1e-13
        )
        assert EPANECHNIKOV.l2_constant == pytest.approx(3.0 * SQRT5 / 25.0, rel=1e-15)
        assert EPANECHNIKOV.l2_constant == pytest.approx(numeric, abs=1e-5)

    def test_density_integrates_to_one(self):
        numeric, _ = integrate.quad(lambda u: float(EPANECHNIKOV.density(u)), -SQRT5, SQRT5)
        assert numeric == pytest.approx(1.0, abs=1e-12)


class TestSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            Sample(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Sample(np.array([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            Sample(np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            Sample(np.array([1.0, 2.0, math.inf]))

    def test_from_values_sorts(self):
        sample = Sample.from_values([3.0, 1.0, 2.0])
        assert sample.values.tolist() == [1.0, 2.0, 3.0]
        assert sample.n == 3
        with pytest.raises(ValueError):
            sample.values[0] = 5.0  # frozen storage


class TestKde:
    def test_single_location_spike(self):
        sample = Sample.from_values([5.0, 5.0, 5.0])
        assert kde(sample, 1.0, 5.0)[0] == pytest.approx(3.0 / (4.0 * SQRT5), rel=1e-14)
        assert kde(sample, 1.0, 5.0)[1] == pytest.approx(0.5, rel=1e-14)
        assert hazard_estimate(sample, 1.0, 5.0) == pytest.approx(3.0 / (2.0 * SQRT5), rel=1e-13)

    def test_vanishes_outside_support(self, melanoma):
        beyond = float(melanoma.values[-1]) + 6.0 * SQRT5 + 1.0
        assert kde(melanoma, 6.0, beyond)[0] == 0.0
        assert kde(melanoma, 6.0, beyond)[1] == 1.0

    @staticmethod
    def _kinks(sample, h, lo, hi):
        # the KDE is piecewise cubic with kinks where kernels enter/leave
        pts = np.unique(np.concatenate([sample.values - h * SQRT5, sample.values + h * SQRT5]))
        return pts[(pts > lo) & (pts < hi)].tolist()

    def test_density_integrates_to_one(self, melanoma):
        h = 6.0
        lo = float(melanoma.values[0]) - h * SQRT5
        hi = float(melanoma.values[-1]) + h * SQRT5
        total, _ = integrate.quad(
            lambda t: kde(melanoma, h, t)[0], lo, hi, limit=2000,
            points=self._kinks(melanoma, h, lo, hi),
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_cdf_matches_density_quadrature(self, melanoma):
        h = 6.0
        lo = float(melanoma.values[0]) - h * SQRT5
        for t in (20.0, 60.0, 150.0):
            numeric, _ = integrate.quad(
                lambda u: kde(melanoma, h, u)[0], lo, t,
                epsabs=1e-12, epsrel=1e-12, limit=2000,
                points=self._kinks(melanoma, h, lo, t),
            )
            assert kde(melanoma, h, t)[1] == pytest.approx(numeric, abs=1e-9)

    def test_cdf_nondecreasing(self, melanoma):
        ts = np.linspace(0.0, 260.0, 400)
        values = kde(melanoma, 6.0, ts)[1]
        assert np.all(np.diff(values) >= 0.0)

    def test_melanoma_density_shape(self, melanoma):
        # unimodal with its peak in [20, 60] and mass out past 200
        ts = np.linspace(5.0, 250.0, 1000)
        f = kde(melanoma, 6.0, ts)[0]
        peak = ts[int(np.argmax(f))]
        assert 20.0 <= peak <= 60.0
        assert kde(melanoma, 6.0, 234.0)[0] > 0.0

    def test_bandwidth_validation(self, melanoma):
        with pytest.raises(ValueError):
            kde(melanoma, 0.0, 10.0)
        with pytest.raises(ValueError):
            kde(melanoma, -1.0, 10.0)
        with pytest.raises(ValueError, match="bandwidth"):
            kde(melanoma, True, 10.0)

    @pytest.mark.parametrize("name, h", [("melanoma_46", 6.0), ("service_86", 75.0), ("exp_1e4", 20.0)])
    def test_matches_direct_sum(self, name, h):
        if name == "exp_1e4":
            sample = Sample.from_values(np.random.default_rng(5).exponential(80.0, size=10_000))
        else:
            sample = builtin(name).sample
        grid = BandConfig(h=h, alpha=0.025, grid_size=32).resolve_grid(sample)
        f, F = kde(sample, h, grid)
        direct = np.array([direct_kde(sample.values.tolist(), h, t) for t in grid.tolist()])
        np.testing.assert_allclose(f, direct[:, 0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(F, direct[:, 1], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name, h", [("melanoma_46", 6.0), ("service_86", 75.0), ("exp_1e4", 20.0)])
    def test_bit_identical_to_matrix_kde(self, name, h):
        if name == "exp_1e4":
            sample = Sample.from_values(np.random.default_rng(5).exponential(80.0, size=10_000))
        else:
            sample = builtin(name).sample
        reach = 3.0 * SQRT5 * h  # past both ends of the sample's kernel support
        ts = np.linspace(sample.values[0] - reach, sample.values[-1] + reach, 301)
        for t in (ts, ts[:300].reshape(20, 15), float(ts[150])):
            got, want = kde(sample, h, t), matrix_kde(sample.values, h, t)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert np.shape(got[0]) == np.shape(want[0])

    def test_bit_identical_with_one_row_blocks(self):
        # n above _BLOCK: every block holds a single grid point
        sample = Sample.from_values(np.random.default_rng(6).exponential(size=_BLOCK + 1000))
        ts = np.array([-0.1, 0.01, 0.5, 3.0, 40.0])
        got, want = kde(sample, 0.05, ts), matrix_kde(sample.values, 0.05, ts)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_scalar_time_gives_two_floats(self, melanoma):
        f, F = kde(melanoma, 6.0, 50.0)
        assert type(f) is float and type(F) is float
        assert (f, F) == tuple(float(v[0]) for v in kde(melanoma, 6.0, np.array([50.0])))

    @given(st.floats(min_value=0.1, max_value=300.0), st.floats(min_value=0.1, max_value=300.0))
    @settings(max_examples=50, deadline=None)
    def test_cdf_monotone_property(self, a, b):
        sample = builtin("melanoma_46").sample
        lo, hi = sorted((a, b))
        assert kde(sample, 6.0, lo)[1] <= kde(sample, 6.0, hi)[1] + 1e-15


class TestHazardEstimate:
    def test_upper_tail_refused(self, melanoma):
        far = float(melanoma.values[-1]) + 20.0
        with pytest.raises(UpperTailError):
            hazard_estimate(melanoma, 6.0, far)

    def test_recovers_constant_hazard_on_synthetic_data(self):
        rng = np.random.default_rng(123)
        sample = Sample.from_values(rng.exponential(1.0 / 0.0125, size=500))
        grid = np.linspace(
            float(np.quantile(sample.values, 0.25)),
            float(np.quantile(sample.values, 0.65)),
            101,
        )
        rates = hazard_estimate(sample, 20.0, grid)
        assert float(np.max(np.abs(rates - 0.0125))) / 0.0125 < 0.30


class TestConfidenceBand:
    def test_ordering_and_default_grid(self, melanoma):
        config = BandConfig(h=6.0, alpha=0.025)
        band = confidence_band(melanoma, config)
        assert band.grid.size == 512
        assert band.grid[0] > float(melanoma.values[0])
        assert band.grid[-1] < float(melanoma.values[-2])
        assert np.all(band.usable)
        assert np.all(band.lower <= band.rate) and np.all(band.rate <= band.upper)
        assert np.all(band.lower < band.upper)

    def test_contains_the_published_baselines(self, melanoma, service):
        band1 = confidence_band(melanoma, BandConfig(h=6.0, alpha=0.025))
        assert np.all((band1.lower <= 0.0125) & (0.0125 <= band1.upper))
        band2 = confidence_band(service, BandConfig(h=75.0, alpha=0.025))
        baseline = APP2["baseline"].rate(band2.grid)
        assert np.all((band2.lower <= baseline) & (baseline <= band2.upper))

    def test_halfwidth_shrinks_with_sample_size(self):
        rng = np.random.default_rng(7)
        big = np.sort(rng.exponential(80.0, size=1600))
        small = Sample.from_values(big[::8])
        large = Sample.from_values(big)
        grid = np.linspace(40.0, 120.0, 50)
        narrow = confidence_band(large, BandConfig(h=25.0, alpha=0.025, grid=grid))
        wide = confidence_band(small, BandConfig(h=25.0, alpha=0.025, grid=grid))
        assert np.nanmean(narrow.halfwidth) < np.nanmean(wide.halfwidth)

    def test_memory_does_not_grow_with_grid(self):
        # one (512 x 1e5) matrix of doubles alone would be ~400 MB
        sample = Sample.from_values(np.random.default_rng(8).exponential(size=100_000))
        config = BandConfig(h=0.02, alpha=0.025)
        tracemalloc.start()
        try:
            confidence_band(sample, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_explicit_grid_must_stay_interior(self, melanoma):
        with pytest.raises(ValueError):
            confidence_band(
                melanoma, BandConfig(h=6.0, alpha=0.025, grid=np.array([5.0, 50.0]))
            )
        with pytest.raises(ValueError):
            confidence_band(
                melanoma, BandConfig(h=6.0, alpha=0.025, grid=np.array([50.0, 200.0]))
            )
        # every point is checked, not just the two ends
        for grid in ([20.0, 500.0, 100.0], [20.0, np.nan, 100.0]):
            with pytest.raises(ValueError):
                confidence_band(melanoma, BandConfig(h=6.0, alpha=0.025, grid=np.array(grid)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BandConfig(h=0.0, alpha=0.025)
        with pytest.raises(ValueError, match="bandwidth"):
            BandConfig(h=True, alpha=0.025)
        with pytest.raises(ValueError):
            BandConfig(h=6.0, alpha=0.5)
        with pytest.raises(ValueError):
            BandConfig(h=6.0, alpha=-0.1)

    def test_count_and_alpha_types(self):
        for bad in (2.5, True, 1):
            with pytest.raises(ValueError, match="grid_size must be an integer >= 2"):
                BandConfig(h=6.0, alpha=0.025, grid_size=bad)
        for bad in (True, "0.025"):
            with pytest.raises(ValueError, match="alpha must be a real number"):
                BandConfig(h=6.0, alpha=bad)
        config = BandConfig(h=6.0, alpha=np.float32(0.025), grid_size=np.int64(8))
        assert config.alpha == float(np.float32(0.025)) and type(config.alpha) is float
        assert config.grid_size == 8

    def test_unusable_points_are_masked(self):
        # two clusters far apart leave a dead zone where the density vanishes
        sample = Sample.from_values([1.0, 1.1, 1.2, 99.0, 99.1, 99.2])
        band = confidence_band(sample, BandConfig(h=0.5, alpha=0.025, grid_size=64))
        assert not np.all(band.usable)
        assert np.all(np.isnan(band.rate[~band.usable]))
        assert np.all(np.isfinite(band.rate[band.usable]))


class TestDefensibility:
    def test_application_one_golden(self, melanoma):
        config = BandConfig(h=APP1["h"], alpha=APP1["alpha"])
        report = defensibility_test(melanoma, config, APP1["baseline"], APP1["c"])
        assert report.holds
        assert report.max_admissible_c >= 0.0004
        assert report.violating_t is None
        assert np.all(report.margin[report.band.usable] >= 0.0)
        failing = defensibility_test(melanoma, config, APP1["baseline"], 0.01)
        assert not failing.holds
        assert failing.violating_t is not None
        # same data, same band: only the amplitude verdict changes
        assert failing.max_admissible_c == pytest.approx(report.max_admissible_c)

    def test_application_one_admissible_amplitude(self, melanoma):
        # regression pin; agrees with an independent prototype to 6 digits
        config = BandConfig(h=6.0, alpha=0.025)
        report = defensibility_test(melanoma, config, ConstantHazard(0.0125), 0.0004)
        assert report.max_admissible_c == pytest.approx(0.000436473529770106, rel=1e-9)

    def test_application_two_golden(self, service):
        config = BandConfig(h=APP2["h"], alpha=APP2["alpha"])
        report = defensibility_test(service, config, APP2["baseline"], APP2["c"])
        assert report.holds
        assert report.max_admissible_c >= 0.00025

    def test_monotone_in_amplitude(self, melanoma):
        config = BandConfig(h=6.0, alpha=0.025)
        baseline = ConstantHazard(0.0125)
        mac = defensibility_test(melanoma, config, baseline, 0.0001).max_admissible_c
        assert mac > 0.0
        below = defensibility_test(melanoma, config, baseline, mac * (1.0 - 1e-6))
        above = defensibility_test(melanoma, config, baseline, mac * (1.0 + 1e-6))
        assert below.holds and not above.holds
        for c in (mac * 0.5, mac * 0.1):
            assert defensibility_test(melanoma, config, baseline, c).holds

    def test_dominance_precondition(self, melanoma):
        config = BandConfig(h=6.0, alpha=0.025)
        with pytest.raises(ValueError):
            defensibility_test(melanoma, config, ConstantHazard(0.0125), 0.02)

    def test_dominance_checked_between_grid_points(self, melanoma):
        # the app1 baseline with a V-shaped dip to 1.25e-4 between two band
        # points; r = 0.0125 at every grid point, as for the passing app1 case
        config = BandConfig(h=6.0, alpha=0.025)
        grid = confidence_band(melanoma, config).grid
        g0, g1 = grid[100:102]
        a, m, b = g0 + 0.1 * (g1 - g0), 0.5 * (g0 + g1), g1 - 0.1 * (g1 - g0)
        down, up = (1.25e-4 - 0.0125) / (m - a), (0.0125 - 1.25e-4) / (b - m)
        dip = PiecewiseLinearHazard((
            (0.0, 0.0, 0.0125),
            (a, down, 0.0125 - down * a),
            (m, up, 1.25e-4 - up * m),
            (b, 0.0, 0.0125),
        ))
        assert np.all(dip.rate(grid) == 0.0125)
        with pytest.raises(ValueError, match="r\\(t\\) > c"):
            defensibility_test(melanoma, config, dip, APP1["c"])

    def test_margin_definition(self, melanoma):
        config = BandConfig(h=6.0, alpha=0.025)
        report = defensibility_test(melanoma, config, ConstantHazard(0.0125), 0.0004)
        band = report.band
        direct = band.halfwidth - np.abs(report.baseline_rate - band.rate) - 0.0004
        assert np.allclose(report.margin, direct, equal_nan=True)

    def test_amplitude_validation(self, melanoma):
        config = BandConfig(h=6.0, alpha=0.025)
        for bad in (0.0, -0.1, math.inf, True):
            with pytest.raises(ValueError, match="c must be"):
                defensibility_test(melanoma, config, ConstantHazard(0.0125), bad)
