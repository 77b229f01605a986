import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from telhaz.estimation import EPANECHNIKOV, BandConfig, Sample, confidence_band

from telhaz.special import bessel_i0e, bessel_i1e_over_x


class TestBessel:
    def test_values_at_zero(self):
        assert bessel_i0e(0.0) == 1.0
        assert bessel_i1e_over_x(0.0) == 0.5

    def test_frozen_series_values(self):
        # independent ascending-series I0(1) and I1(1), truncated below 1e-16, scaled by e^-1
        scale = math.exp(-1.0)
        assert bessel_i0e(1.0) == pytest.approx(1.2660658777520082 * scale, rel=1e-14)
        assert bessel_i1e_over_x(1.0) == pytest.approx(0.5651591039924851 * scale, rel=1e-13)

    @pytest.mark.parametrize("x", np.geomspace(1e-6, 600.0, 41).tolist() + [29.9, 30.0, 30.1])
    def test_against_scipy(self, x):
        assert bessel_i0e(x) == pytest.approx(float(special.i0e(x)), rel=1e-12)
        assert bessel_i1e_over_x(x) == pytest.approx(float(special.i1e(x)) / x, rel=1e-12)

    def test_i1e_over_x_matches_ratio(self):
        for x in (1e-12, 1e-6, 0.5, 10.0, 29.99, 30.01, 250.0):
            assert bessel_i1e_over_x(x) == pytest.approx(float(special.i1e(x)) / x, rel=1e-12)

    def test_array_input(self):
        xs = np.array([0.0, 0.5, 2.0, 40.0])
        out = bessel_i0e(xs)
        assert out.shape == xs.shape
        assert np.allclose(out, special.i0e(xs), rtol=1e-12)

    def test_huge_argument_stays_finite(self):
        assert np.isfinite(bessel_i0e(800.0))
        assert np.isfinite(bessel_i1e_over_x(800.0))

    def test_negative_argument_rejected(self):
        for fn in (bessel_i0e, bessel_i1e_over_x):
            with pytest.raises(ValueError):
                fn(-1.0)
            with pytest.raises(ValueError):
                fn(float("nan"))


_BAND_SAMPLE = Sample.from_values(np.linspace(0.1, 1.0, 50) ** 2)


def band_quantile(alpha):
    """The z_alpha that confidence_band applied, read back from its half-width."""
    band = confidence_band(_BAND_SAMPLE, BandConfig(h=0.3, alpha=alpha, grid_size=8))
    scale = np.sqrt(
        EPANECHNIKOV.l2_constant / (_BAND_SAMPLE.n * 0.3 * band.density)
    ) * band.rate
    z = band.halfwidth[band.usable] / scale[band.usable]
    assert z.size > 0
    return float(z[0])


class TestNormalQuantile:
    """The band's upper-tail normal quantile: P{Z > z_alpha} = alpha."""

    def test_frozen_values(self):
        assert band_quantile(0.025) == pytest.approx(1.9599639845400545, abs=1e-9)
        assert band_quantile(0.158655) == pytest.approx(1.000001049431045, abs=1e-9)
        # the rounded tail of Phi(1) maps back to 1.0 at its own precision
        assert band_quantile(0.158655) == pytest.approx(1.0, abs=5e-6)
        # alpha = 0.5 (z = 0, a band of zero width) is outside the band's domain
        with pytest.raises(ValueError):
            BandConfig(h=0.3, alpha=0.5)

    @pytest.mark.parametrize("alpha", np.geomspace(1e-9, 0.499, 25).tolist())
    def test_against_scipy_isf(self, alpha):
        assert band_quantile(alpha) == pytest.approx(float(stats.norm.isf(alpha)), abs=1e-9)

    def test_round_trip_through_erfc(self):
        for alpha in (1e-8, 1e-4, 0.025, 0.2, 0.45):
            z = band_quantile(alpha)
            assert 0.5 * math.erfc(z / math.sqrt(2.0)) == pytest.approx(alpha, rel=1e-12)

    @given(
        st.floats(min_value=1e-9, max_value=0.5, exclude_max=True),
        st.floats(min_value=1e-9, max_value=0.5, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert band_quantile(lo) >= band_quantile(hi)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 0.6, 1.0, float("nan")])
    def test_domain(self, alpha):
        with pytest.raises(ValueError):
            BandConfig(h=0.3, alpha=alpha)


def test_epanechnikov_l2_constant_by_quadrature():
    # closed form 3*sqrt(5)/25 for the parabolic kernel on [-sqrt(5), sqrt(5)]
    radius = math.sqrt(5.0)

    def k(u):
        return 3.0 / (4.0 * radius) * (1.0 - u * u / 5.0)

    value, _ = integrate.quad(lambda u: k(u) ** 2, -radius, radius, epsabs=1e-13)
    assert value == pytest.approx(3.0 * math.sqrt(5.0) / 25.0, abs=1e-12)
