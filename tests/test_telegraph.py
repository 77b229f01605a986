import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from conftest import brute_force_w, ks_distance, ks_critical, oracle_path, walk_integral
from telhaz.telegraph import (
    TelegraphParams,
    mgf,
    sample_path,
    sample_w,
    scaled_mgf,
    w_atom_prob,
    w_cdf,
    w_density,
    w_mean_var,
)


class TestTypes:
    @pytest.mark.parametrize("c,lam", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                       (math.inf, 1.0), (1.0, math.nan)])
    def test_params_rejected(self, c, lam):
        with pytest.raises(ValueError):
            TelegraphParams(c=c, lam=lam)

    def test_params_accept_numpy_integers(self):
        params = TelegraphParams(c=np.int64(1), lam=np.int64(3))
        assert (params.c, params.lam) == (1.0, 3.0)
        assert type(params.c) is float and type(params.lam) is float
        with pytest.raises(ValueError, match="real number"):
            TelegraphParams(c=True, lam=1.0)


class TestSampling:
    def test_deterministic_per_seed(self):
        p = TelegraphParams(c=2.0, lam=15.0)
        grid = np.linspace(0.0, 1.0, 51)
        a = sample_path(p, grid, seed=42)
        assert np.array_equal(sample_path(p, grid, seed=42), a)
        assert not np.array_equal(sample_path(p, grid, seed=43), a)

    def test_horizon_domain(self):
        # the horizon is grid[-1]: zero is allowed, and more than 2**30
        # expected switches is refused before any is drawn
        p = TelegraphParams(c=1.0, lam=1.0)
        assert sample_path(p, [0.0], seed=1).tolist() == [0.0]
        for lam, end in ((1e300, 1.0), (2.0**30, math.nextafter(1.0, 2.0))):
            with pytest.raises(ValueError, match=r"^lam = .* switches; at most 2\*\*30"):
                sample_path(TelegraphParams(c=1.0, lam=lam), [0.0, end], seed=1)

    def test_event_count_poisson_gof(self):
        # chi-square goodness of fit of N(1) against Poisson(15) over 1e4 seeds
        p = TelegraphParams(c=2.0, lam=15.0)
        counts = np.array([len(oracle_path(p, 1.0, seed=s)[1]) for s in range(10_000)])
        kmax = int(counts.max()) + 1
        observed = np.bincount(counts, minlength=kmax).astype(float)
        expected = stats.poisson.pmf(np.arange(kmax), 15.0) * counts.size
        expected[-1] += (1.0 - stats.poisson.cdf(kmax - 1, 15.0)) * counts.size
        # merge bins until every expected count is at least 5
        obs_m, exp_m, acc_o, acc_e = [], [], 0.0, 0.0
        for o, e in zip(observed, expected):
            acc_o += o
            acc_e += e
            if acc_e >= 5.0:
                obs_m.append(acc_o)
                exp_m.append(acc_e)
                acc_o = acc_e = 0.0
        obs_m[-1] += acc_o
        exp_m[-1] += acc_e
        chi2 = float(np.sum((np.array(obs_m) - np.array(exp_m)) ** 2 / np.array(exp_m)))
        dof = len(obs_m) - 1
        assert chi2 < stats.chi2.ppf(0.999, dof)

    def test_no_event_probability(self):
        p = TelegraphParams(c=1.0, lam=2.0)
        n = 4000
        empty = sum(not oracle_path(p, 1.0, seed=s)[1] for s in range(n))
        target = math.exp(-2.0)
        sigma = math.sqrt(target * (1.0 - target) / n)
        assert abs(empty / n - target) < 3.0 * sigma

    def test_batch_sampler_matches_path_sampler(self):
        p = TelegraphParams(c=1.0, lam=3.0)
        batch = sample_w(p, 1.0, 3000, seed=5)
        walked = brute_force_w(1.0, 3.0, 1.0, 3000, seed=77)
        result = stats.ks_2samp(batch, walked)
        assert result.pvalue > 1e-3

    def test_batch_edge_cases(self):
        p = TelegraphParams(c=2.0, lam=1e-9)
        w = sample_w(p, 1.0, 50, seed=0)
        assert np.all(np.abs(w) == 2.0)  # no switches at negligible rate
        assert sample_w(p, 1.0, 0, seed=0).size == 0

    def test_path_count_validation(self):
        p = TelegraphParams(c=1.0, lam=1.0)
        for bad in (2.5, True, -1):
            with pytest.raises(ValueError, match="n_paths must be an integer >= 0"):
                sample_w(p, 1.0, bad, seed=0)
        assert sample_w(p, 1.0, np.int64(3), seed=0).size == 3


class TestIntegration:
    def test_zero_event_path(self):
        # at a negligible rate the path keeps its starting side: W(t) = +-c*t
        p = TelegraphParams(c=2.0, lam=1e-9)
        grid = np.linspace(0.0, 1.0, 7)
        for seed in range(4):
            w = sample_path(p, grid, seed)
            assert np.array_equal(np.abs(w), 2.0 * grid)
            assert np.all(np.sign(w[1:]) == np.sign(w[-1]))

    def test_hand_integrated_examples(self):
        # the oracle walk itself, against integration by hand
        p1 = TelegraphParams(c=1.0, lam=1.0)
        assert walk_integral(1, [0.5], p1, [1.0]).tolist() == [0.0]
        # -0.25 + 0.50 - 0.25 over the three segments
        assert walk_integral(-1, [0.25, 0.75], p1, [1.0]).tolist() == [0.0]
        # +0.25 - 0.50 over [0, 0.75] when starting on the positive side
        assert walk_integral(1, [0.25, 0.75], p1, [0.25, 0.75]).tolist() == [0.25, -0.25]

    def test_domain(self):
        p = TelegraphParams(c=1.0, lam=1.0)
        cases = [
            ([], "grid must be a non-empty 1-d sequence"),
            ([[0.0, 0.5]], "grid must be a non-empty 1-d sequence"),
            ([0.0, 0.5, 0.25], "grid must be nondecreasing"),
            ([-0.1, 0.5], r"grid must lie in \[0, inf\), got -0.1"),
            ([0.0, math.nan], r"grid must lie in \[0, inf\), got nan"),
            ([0.0, math.inf], r"grid must lie in \[0, inf\), got inf"),
        ]
        for grid, message in cases:
            with pytest.raises(ValueError, match=f"^{message}"):
                sample_path(p, grid, seed=0)

    def test_repeated_time_gives_equal_values(self):
        p = TelegraphParams(c=1.0, lam=15.0)
        w = sample_path(p, [0.0, 0.3, 0.3, 0.3, 1.0, 1.0], seed=5)
        assert w[1] == w[2] == w[3]
        assert w[4] == w[5]

    @pytest.mark.parametrize("lam_t", [1.0, 15.0, 300.0, 1000.0, 30000.0])
    def test_array_matches_walk_exactly(self, lam_t):
        p = TelegraphParams(c=1.5, lam=lam_t / 2.0)
        sign, events = oracle_path(p, 2.0, seed=int(lam_t))
        # switch times and their float neighbours are where a search can pick
        # the wrong segment
        events = np.array(events)
        grid = np.sort(np.concatenate([
            np.linspace(0.0, 2.0, 257),
            events,
            np.nextafter(events, 0.0),
            np.minimum(np.nextafter(events, 3.0), 2.0),
        ]))
        expected = walk_integral(sign, events, p, grid)
        assert np.array_equal(sample_path(p, grid, seed=int(lam_t)), expected)

    def test_long_path_within_roundoff(self):
        # past 2**16 expected switches the gaps are drawn in several blocks, so
        # the switch times round differently from the oracle's single block
        p = TelegraphParams(c=1.0, lam=1e6)
        grid = np.linspace(0.0, 1.0, 201)
        sign, events = oracle_path(p, 1.0, seed=11)
        gap = np.max(np.abs(sample_path(p, grid, seed=11) - walk_integral(sign, events, p, grid)))
        assert gap <= 1e-12 * p.c * grid[-1]

    def test_long_path_memory_bounded(self):
        # 1e6 expected switches on 201 points; the switch times of one whole
        # path would take ~65 MB
        p = TelegraphParams(c=1.0, lam=1e6)
        grid = np.linspace(0.0, 1.0, 201)
        tracemalloc.start()
        try:
            sample_path(p, grid, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_bounded_by_ct(self, seed, t, c, lam):
        grid = np.array([t, 1.0])
        w = sample_path(TelegraphParams(c=c, lam=lam), grid, seed)
        assert np.all(np.abs(w) <= c * grid + 1e-12)

    def test_last_value_matches_w_cdf(self):
        # KS distance of W(1) over 1e4 seeds against the closed-form CDF at the
        # 0.1% level of the other goodness-of-fit tests here; at the atoms -ct
        # and ct the CDF jumps, so its left limit there is taken apart
        p = TelegraphParams(c=2.0, lam=1.5)
        n = 10_000
        w = np.sort([sample_path(p, [1.0], seed)[0] for seed in range(n)])
        cdf_at = w_cdf(p, 1.0, w)
        left = np.where(w <= -2.0, 0.0, np.where(w >= 2.0, 1.0 - w_atom_prob(p, 1.0), cdf_at))
        i = np.arange(1, n + 1)
        distance = max(float(np.max(i / n - cdf_at)), float(np.max(left - (i - 1) / n)))
        assert distance < ks_critical(n, alpha=0.001)


class TestAtomAndDensity:
    def test_atom_values(self):
        p = TelegraphParams(c=1.0, lam=15.0)
        assert w_atom_prob(p, 0.0) == 0.5
        assert w_atom_prob(p, 0.2) == pytest.approx(0.024893534183931972, rel=1e-14)
        ts = np.linspace(0.0, 5.0, 20)
        probs = [w_atom_prob(p, float(t)) for t in ts]
        assert np.all(np.diff(probs) < 0.0)
        with pytest.raises(ValueError):
            w_atom_prob(p, -0.1)

    def test_center_value_from_series_oracle(self):
        # (1/2) e^{-1} [I0(1) + I1(1)], from an independent scipy evaluation
        p = TelegraphParams(c=1.0, lam=1.0)
        oracle = 0.5 * math.exp(-1.0) * float(special.i0(1.0) + special.i1(1.0))
        assert oracle == pytest.approx(0.33683501147167444, rel=1e-12)
        assert w_density(p, 1.0, 0.0) == pytest.approx(oracle, rel=1e-12)

    def test_symmetry(self):
        p = TelegraphParams(c=2.0, lam=3.0)
        xs = np.linspace(0.01, 1.9, 25)
        assert np.allclose(w_density(p, 1.0, xs), w_density(p, 1.0, -xs), rtol=1e-13)

    def test_domain(self):
        p = TelegraphParams(c=1.0, lam=1.0)
        with pytest.raises(ValueError):
            w_density(p, 1.0, 1.0)  # endpoint carries an atom
        with pytest.raises(ValueError):
            w_density(p, 1.0, -1.5)
        for x in (math.nan, np.array([0.0, math.nan])):
            with pytest.raises(ValueError, match="x must lie strictly inside"):
                w_density(p, 1.0, x)
        with pytest.raises(ValueError, match=r"^t must be finite and > 0, got 0\.0$"):
            w_density(p, 0.0, 0.0)

    @pytest.mark.parametrize("c,lam,t", [(1.0, 1.0, 1.0), (0.5, 15.0, 2.0), (2.0, 5.0, 0.25)])
    def test_normalization(self, c, lam, t):
        p = TelegraphParams(c=c, lam=lam)
        interior, _ = integrate.quad(
            lambda x: w_density(p, t, x), -c * t, c * t, epsabs=1e-11, epsrel=1e-11, limit=200
        )
        assert 2.0 * w_atom_prob(p, t) + interior == pytest.approx(1.0, abs=1e-8)

    def test_cdf_endpoints_and_consistency(self):
        p = TelegraphParams(c=1.0, lam=2.0)
        t = 1.5
        atom = w_atom_prob(p, t)
        assert w_cdf(p, t, -t) == pytest.approx(atom, rel=1e-12)
        assert w_cdf(p, t, t) == 1.0
        assert w_cdf(p, t, -t - 1e-9) == 0.0
        mid = w_cdf(p, t, 0.0)
        assert mid == pytest.approx(0.5, abs=1e-9)  # symmetric law
        assert w_cdf(p, 0.0, -0.1) == 0.0
        assert w_cdf(p, 0.0, 0.0) == 1.0

    @pytest.mark.parametrize(
        "c,lam,t",
        [(1.0, 1.0, 1.0), (2.0, 5.0, 0.25), (0.5, 15.0, 2.0), (1.0, 30.0, 10.0), (0.3, 100.0, 3.0)],
    )
    def test_cdf_matches_density_quadrature(self, c, lam, t):
        # oracle: lower atom plus adaptive quadrature of the Bessel density, cell by cell
        p = TelegraphParams(c=c, lam=lam)
        xs = np.linspace(-c * t, c * t, 41)[:-1]
        cells = [
            integrate.quad(
                lambda x: w_density(p, t, x), lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200
            )[0]
            for lo, hi in zip(xs[:-1], xs[1:])
        ]
        oracle = w_atom_prob(p, t) + np.concatenate([[0.0], np.cumsum(cells)])
        assert np.max(np.abs(w_cdf(p, t, xs) - oracle)) <= 1e-12
        scalar = w_cdf(p, t, float(xs[7]))
        assert type(scalar) is float
        assert scalar == pytest.approx(oracle[7], abs=1e-12)

    def test_empirical_cdf_matches_closed_form(self):
        # KS distance between 1e5 exact samples and the exact law, up to lam*t = 1000
        n = 100_000
        i = np.arange(1, n + 1)
        for c, lam, t in [(1.0, 1.0, 1.0), (1.0, 300.0, 1.0), (0.5, 100.0, 10.0)]:
            p = TelegraphParams(c=c, lam=lam)
            ct = c * t
            sample = np.sort(sample_w(p, t, n, seed=321))
            xs = np.linspace(-ct, ct, 16385)[1:-1]
            cdf_interior = w_cdf(p, t, xs)
            atom = w_atom_prob(p, t)
            # exact CDF at the sample points, honoring the two endpoint atoms
            inside = np.interp(sample, xs, cdf_interior)
            cdf_at = np.where(sample <= -ct, atom, np.where(sample >= ct, 1.0, inside))
            # left limits differ from the CDF only at the endpoint atoms
            left = np.where(
                sample <= -ct, 0.0, np.where(sample >= ct, 1.0 - atom, cdf_at)
            )
            distance = max(np.max(i / n - cdf_at), np.max(left - (i - 1) / n))
            assert distance < ks_critical(n, alpha=0.01), (c, lam, t, distance)

    def test_every_sample_within_bound(self):
        p = TelegraphParams(c=1.7, lam=4.0)
        w = sample_w(p, 2.0, 20_000, seed=9)
        assert np.all(np.abs(w) <= 1.7 * 2.0 + 1e-12)


class TestMgf:
    def test_trivial_values(self):
        p = TelegraphParams(c=1.5, lam=2.0)
        for t in (0.0, 0.5, 3.0):
            assert mgf(p, 0.0, t) == pytest.approx(1.0, rel=1e-13)
        for s in (-3.0, -1.0, 0.5, 2.0):
            assert mgf(p, s, 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_frozen_value(self):
        p = TelegraphParams(c=1.0, lam=1.0)
        assert mgf(p, 1.0, 1.0) == pytest.approx(1.304677973964021, rel=1e-12)

    @given(st.floats(min_value=-4.0, max_value=4.0), st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=80, deadline=None)
    def test_symmetric_and_positive(self, s, t):
        p = TelegraphParams(c=1.2, lam=2.5)
        value = mgf(p, s, t)
        assert value > 0.0
        assert value == pytest.approx(mgf(p, -s, t), rel=1e-12)

    @pytest.mark.parametrize("s", [-2.0, -1.0, 1.0, 2.0])
    def test_matches_atoms_plus_density_integral(self, s):
        p = TelegraphParams(c=1.0, lam=1.0)
        t = 1.0
        interior, _ = integrate.quad(
            lambda x: math.exp(s * x) * w_density(p, t, x), -t, t,
            epsabs=1e-10, epsrel=1e-10, limit=200,
        )
        direct = 2.0 * w_atom_prob(p, t) * math.cosh(s * t) + interior
        assert mgf(p, s, t) == pytest.approx(direct, abs=1e-6)

    @pytest.mark.parametrize("lam,c", [(1.0, 1.0), (15.0, 0.5), (5.0, 2.0)])
    def test_telegraph_equation_residual(self, lam, c):
        # d^2M/dt^2 + 2 lam dM/dt = s^2 c^2 M, by central differences in t
        p = TelegraphParams(c=c, lam=lam)
        delta = 3e-5
        for s in (-2.0, -1.0, 1.0, 2.0):
            for t in (0.25, 1.0, 2.0):
                m0 = mgf(p, s, t)
                mp = mgf(p, s, t + delta)
                mm = mgf(p, s, t - delta)
                d2 = (mp - 2.0 * m0 + mm) / delta**2
                d1 = (mp - mm) / (2.0 * delta)
                residual = d2 + 2.0 * lam * d1 - s * s * c * c * m0
                assert abs(residual) / (s * s * c * c * m0) < 1e-4

    def test_scaled_variant(self):
        p = TelegraphParams(c=1.0, lam=2.0)
        assert scaled_mgf(p, -1.0, 1.5, 2.0) == pytest.approx(
            mgf(p, -1.0, 1.5) * math.exp(-2.0), rel=1e-12
        )

    def test_domain(self):
        p = TelegraphParams(c=1.0, lam=1.0)
        with pytest.raises(ValueError):
            mgf(p, 1.0, -0.5)
        with pytest.raises(ValueError):
            mgf(p, math.inf, 1.0)


class TestMoments:
    def test_mean_zero_and_var_zero_at_origin(self):
        p = TelegraphParams(c=3.0, lam=0.5)
        mean, var = w_mean_var(p, 0.0)
        assert mean == 0.0 and var == 0.0

    def test_variance_against_mgf_derivative(self):
        p = TelegraphParams(c=1.0, lam=1.0)
        _, var = w_mean_var(p, 1.0)
        assert var == pytest.approx(0.5676676416183064, rel=1e-12)
        delta = 1e-5
        numeric = (mgf(p, delta, 1.0) + mgf(p, -delta, 1.0) - 2.0) / delta**2
        assert var == pytest.approx(numeric, rel=1e-5)

    def test_variance_against_monte_carlo(self):
        p = TelegraphParams(c=1.0, lam=1.0)
        w = sample_w(p, 1.0, 100_000, seed=13)
        _, var = w_mean_var(p, 1.0)
        centered = (w - w.mean()) ** 2
        se = centered.std() / math.sqrt(w.size)
        assert abs(var - w.var()) < 3.0 * se

    def test_small_time_quadratic_regime(self):
        p = TelegraphParams(c=2.0, lam=5.0)
        _, var = w_mean_var(p, 1e-6)
        assert var == pytest.approx((2.0 * 1e-6) ** 2, rel=1e-4)
