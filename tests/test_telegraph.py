import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from conftest import (
    bessel_density_oracle, brute_force_w, ks_distance, ks_critical, loop_w_cdf, mp_w_cdf,
    mp_w_variance, oracle_path, set_cpus, walk_integral, walk_paths,
)
from telhaz import telegraph
from telhaz.telegraph import (
    TelegraphParams,
    mgf,
    sample_paths,
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
        a, b, c = sample_paths(p, grid, [42, 42, 43])
        assert np.array_equal(b, a) and np.array_equal(next(sample_paths(p, grid, [42])), a)
        assert not np.array_equal(c, a)

    def test_horizon_domain(self):
        # the horizon is grid[-1]: zero is allowed, and more than 2**30
        # expected switches is refused before any is drawn
        p = TelegraphParams(c=1.0, lam=1.0)
        assert next(sample_paths(p, [0.0], [1])).tolist() == [0.0]
        for lam, end in ((1e300, 1.0), (2.0**30, math.nextafter(1.0, 2.0))):
            with pytest.raises(ValueError, match=r"^lam = .* switches; at most 2\*\*30"):
                sample_paths(TelegraphParams(c=1.0, lam=lam), [0.0, end], [1])

    def test_overflowing_bound_named(self):
        # c * grid[-1] past the double range would give W = -+inf; refused by name
        p = TelegraphParams(c=1e300, lam=3.6e-253)
        with pytest.raises(ValueError, match=r"^c = 1e\+300 up to grid\[-1\] = 1\.4e\+65 lets"):
            sample_paths(p, [0.0, 1.4e65], [1])
        with pytest.raises(ValueError, match=r"^c = 1e\+300 up to t = 1\.4e\+65 lets"):
            w_cdf(p, 1.4e65, 0.0)
        assert np.isfinite(next(sample_paths(p, [0.0, 1e8], [1]))).all()

    def test_seed_refused_when_its_path_is_drawn(self):
        # the grid is checked by the call; a seed only by numpy, once its path is read
        paths = sample_paths(TelegraphParams(c=1.0, lam=1.0), [0.0, 1.0], [1, -1])
        assert next(paths).shape == (2,)
        with pytest.raises(ValueError):
            next(paths)

    def test_sample_w_bounds_named(self):
        # c * t = inf once gave five -inf draws, and a Poisson mean past numpy's
        # limit its bare "lam value too large"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^c = 1e\+300 up to t = 10000000000\.0 lets"):
                sample_w(TelegraphParams(c=1e300, lam=1e-300), 1e10, 5, seed=0)
            with pytest.raises(ValueError, match=r"^lam = 1000000000\.0 at t = 10000000000\.0 "
                                                 r"expects 1e\+19 switches, past the largest"):
                sample_w(TelegraphParams(c=1e-300, lam=1e9), 1e10, 3, seed=0)
            w = sample_w(TelegraphParams(c=1.0, lam=1e9), 9e9, 3, seed=0)  # lam * t = 8.1e18
        assert np.all(np.abs(w) <= 9e9)

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


class TestReach:
    def test_shape_kept(self):
        p = TelegraphParams(c=2.0, lam=1.0)
        assert telegraph._reach(p, 1.5) == 3.0 and type(telegraph._reach(p, 1.5)) is float
        assert type(telegraph._reach(p, np.array(1.5))) is float
        grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        assert np.array_equal(telegraph._reach(p, grid), 2.0 * grid)
        assert telegraph._reach(p, np.array([])).shape == (0,)

    def test_overflowing_ct_refusal_same_as_scalar(self):
        # c * t passes the double range from the second point on
        p = TelegraphParams(c=1.24e111, lam=1.0)
        grid = np.linspace(0.0, 4.98e285, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as scalar:
                telegraph._reach(p, float(grid[1]))
            with pytest.raises(ValueError) as array:
                telegraph._reach(p, grid[::-1])
            named = r"^c = 1\.24e\+111 up to --t = 1\.245e\+285 lets \|W\| reach c \* --t = inf"
            with pytest.raises(ValueError, match=named):
                telegraph._reach(p, float(grid[1]), "--t")
        assert str(array.value) == str(scalar.value)
        assert str(scalar.value) == (
            "c = 1.24e+111 up to t = 1.245e+285 lets |W| reach c * t = inf; it must be finite"
        )

    def test_laws_of_w_refuse_infinite_ct(self):
        p = TelegraphParams(c=1e300, lam=1.0)
        calls = (lambda: w_density(p, 1e10, 0.0), lambda: w_cdf(p, 1e10, 0.0),
                 lambda: sample_w(p, 1e10, 1, seed=0))
        for call in calls:
            with pytest.raises(ValueError, match=r"^c = 1e\+300 up to t = 10000000000\.0 lets"):
                call()


class TestIntegration:
    def test_zero_event_path(self):
        # at a negligible rate the path keeps its starting side: W(t) = +-c*t; at the least
        # rates the gaps pass the double range, and inf - inf once warned
        grid = np.linspace(0.0, 1.0, 7)
        for lam in (1e-9, 1e-308, 5e-324):
            for w in sample_paths(TelegraphParams(c=2.0, lam=lam), grid, range(4)):
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
        for grid, message in cases:  # refused by the call, before any path: also for no seeds
            with pytest.raises(ValueError, match=f"^{message}"):
                sample_paths(p, grid, [])

    def test_repeated_time_gives_equal_values(self):
        p = TelegraphParams(c=1.0, lam=15.0)
        w = next(sample_paths(p, [0.0, 0.3, 0.3, 0.3, 1.0, 1.0], [5]))
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
        assert np.array_equal(next(sample_paths(p, grid, [int(lam_t)])), expected)

    def test_long_path_within_roundoff(self):
        # past 2**16 expected switches the gaps are drawn in several blocks, so
        # the switch times round differently from the oracle's single block
        p = TelegraphParams(c=1.0, lam=1e6)
        grid = np.linspace(0.0, 1.0, 201)
        sign, events = oracle_path(p, 1.0, seed=11)
        w = next(sample_paths(p, grid, [11]))
        gap = np.max(np.abs(w - walk_integral(sign, events, p, grid)))
        assert gap <= 1e-12 * p.c * grid[-1]

    def test_long_path_memory_bounded(self):
        # 1e6 expected switches on 201 points; the switch times of one whole
        # path would take ~65 MB
        p = TelegraphParams(c=1.0, lam=1e6)
        grid = np.linspace(0.0, 1.0, 201)
        tracemalloc.start()
        try:
            next(sample_paths(p, grid, [11]))
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
        w = next(sample_paths(TelegraphParams(c=c, lam=lam), grid, [seed]))
        assert np.all(np.abs(w) <= c * grid + 1e-12)

    def test_last_value_matches_w_cdf(self):
        # KS distance of W(1) over 1e4 seeds against the closed-form CDF at the
        # 0.1% level of the other goodness-of-fit tests here; at the atoms -ct
        # and ct the CDF jumps, so its left limit there is taken apart
        p = TelegraphParams(c=2.0, lam=1.5)
        n = 10_000
        w = np.sort([w[0] for w in sample_paths(p, [1.0], range(n))])
        cdf_at = w_cdf(p, 1.0, w)
        left = np.where(w <= -2.0, 0.0, np.where(w >= 2.0, 1.0 - w_atom_prob(p, 1.0), cdf_at))
        i = np.arange(1, n + 1)
        distance = max(float(np.max(i / n - cdf_at)), float(np.max(left - (i - 1) / n)))
        assert distance < ks_critical(n, alpha=0.001)


class TestBatchWalk:
    """``sample_paths`` walks its seeds a batch at a time; each path keeps the per-path bits."""

    @staticmethod
    def assert_walked(params, grid, seeds):
        batch = [w.tobytes() for w in sample_paths(params, grid, seeds)]
        assert batch == [w.tobytes() for w in walk_paths(params, grid, seeds)]

    def test_fig1_settings(self):
        # 2000 paths at c = 2, lam = 15 on 201 points, as simulate-w draws them: several batches
        grid = np.linspace(0.0, 1.0, 201)
        assert telegraph._BATCH_CELLS // (telegraph._gap_block(15.0) + grid.size) < 2000 / 4
        self.assert_walked(TelegraphParams(c=2.0, lam=15.0), grid, range(2000))

    def test_seeds_span_batches(self, monkeypatch):
        # three paths a batch: 10 seeds, read from an iterator, end in a batch of one
        grid = np.linspace(0.0, 2.0, 31)
        params = TelegraphParams(c=0.5, lam=4.0)
        monkeypatch.setattr(telegraph, "_BATCH_CELLS", 3 * (telegraph._gap_block(8.0) + grid.size))
        self.assert_walked(params, grid, range(100, 110))
        assert len(list(sample_paths(params, grid, iter(range(10))))) == 10

    def test_rows_finish_in_different_rounds(self, monkeypatch):
        # 8 gaps a block: a path with N switches before t = 1 needs N // 8 + 1 rounds, and the
        # rows of one batch need from one to four
        monkeypatch.setattr(telegraph, "_GAP_BLOCK", 8)
        params, seeds = TelegraphParams(c=2.0, lam=15.0), range(250)
        rounds = {len(oracle_path(params, 1.0, seed)[1]) // 8 + 1 for seed in seeds}
        assert len(rounds) > 2
        grid = np.linspace(0.0, 1.0, 51)
        assert telegraph._BATCH_CELLS // (8 + grid.size) >= len(seeds)
        self.assert_walked(params, grid, seeds)
        # repeated times, and a point on a block's last arrival
        self.assert_walked(params, np.array([0.0, 0.2, 0.2, 0.5, 0.5, 0.5, 1.0, 1.0]), seeds)

    def test_multi_block_path(self):
        # 1e6 expected switches: one path a batch, in 16 blocks of 2^16 gaps
        grid = np.linspace(0.0, 1.0, 201)
        assert telegraph._BATCH_CELLS // (telegraph._gap_block(1e6) + grid.size) == 0
        self.assert_walked(TelegraphParams(c=1.0, lam=1e6), grid, [11, 12])

    @pytest.mark.parametrize("lam", [1e-308, 5e-324])
    def test_least_rates_warn_nothing(self, lam):
        # every gap is inf, and past the first arrival inf - inf is nan
        grid = np.linspace(0.0, 1.0, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_walked(TelegraphParams(c=2.0, lam=lam), grid, range(20))

    @pytest.mark.parametrize("grid", [[0.0, 0.3, 0.3, 0.3, 1.0, 1.0], [0.7], [0.0]])
    def test_repeated_times_and_one_point(self, grid):
        self.assert_walked(TelegraphParams(c=1.0, lam=15.0), grid, range(50))

    def test_paths_before_a_bad_seed_are_read(self):
        # the batch up to a bad seed is walked and read first; numpy's refusal comes next
        params, grid = TelegraphParams(c=1.0, lam=3.0), [0.0, 0.5, 1.0]
        paths = sample_paths(params, grid, [1, 2, -1, 3])
        assert [next(paths).tobytes() for _ in range(2)] == [
            w.tobytes() for w in walk_paths(params, grid, [1, 2])]
        with pytest.raises(ValueError):
            next(paths)


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

    def test_ct_rounding_to_zero_names_c_and_t(self):
        # no x is inside (-c*t, c*t) = (0, 0); c and t are at fault, not x
        p = TelegraphParams(c=1e-300, lam=1.0)
        with pytest.raises(ValueError, match=r"^c = 1e-300 at t = 1e-300 gives c \* t = 0\.0"):
            w_density(p, 1e-300, 0.0)

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


class TestDensityBlocks:
    """The Bessel density's block walk against the whole-array oracle, byte for byte."""

    BLOCK = telegraph._DENSITY_BLOCK

    @pytest.mark.parametrize(
        "lam, n",
        [pytest.param(lam, n, id=f"{n}" if lam == 40.0 else f"lam10-{n}")
         for n in (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5) for lam in (40.0, 10.0)],
    )
    def test_w_density_matches_oracle_bytes(self, lam, n):
        # lam c t = 40: unsorted z on [0, 40] puts both sides of the cutoff in every block;
        # lam c t = 10: z on [0, 10] keeps every block on the series side
        p = TelegraphParams(c=1.0, lam=lam)
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        got = w_density(p, 1.0, x)
        want = bessel_density_oracle(p, 1.0, (1.0 - x) * (1.0 + x), 1.0)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        for i in (0, n // 2, n - 1):
            assert w_density(p, 1.0, float(x[i])) == got[i]

    def test_w_density_2d_matches_oracle_bytes(self):
        # 129 * 131 points: two blocks, the second cut inside a row; and the transpose
        p = TelegraphParams(c=1.0, lam=40.0)
        x = np.random.default_rng(2).uniform(-1.0, 1.0, (129, 131))
        for arr in (x, x.T):
            got = w_density(p, 1.0, arr)
            want = bessel_density_oracle(p, 1.0, (1.0 - arr) * (1.0 + arr), 1.0)
            assert got.shape == want.shape == arr.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("last", [math.inf, 1e308], ids=["z", "density"])
    def test_overflow_in_last_block_refused_as_oracle(self, last):
        # z is inf, or z = 1e155 is finite and the density overflows, at the last point only
        p = TelegraphParams(c=1.0, lam=10.0)
        spread2 = np.random.default_rng(5).uniform(0.0, 1.0, 3 * self.BLOCK + 5)
        spread2[-1] = last
        with pytest.raises(ValueError) as want:
            bessel_density_oracle(p, 1.0, spread2, 1.0)
        assert str(want.value) == "the density overflows at c = 1.0, lam = 10.0, t = 1.0"
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            # the points are the spreads themselves, with jacobian 1
            telegraph._bessel_density(p, 1.0, spread2, lambda s: (s, 1.0))

    def test_memory_bounded(self):
        # the whole-array evaluation peaked at ~9.1x the output's 8 MB, blocks split by regime
        # at ~1.25x, blocks evaluated in place at ~1.19x
        p = TelegraphParams(c=1.0, lam=10.0)
        x = np.random.default_rng(1).uniform(-1.0, 1.0, 1_000_000)
        tracemalloc.start()
        try:
            out = w_density(p, 1.0, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes


class TestDensityThreads:
    """The Bessel density's two walkers: bytes, errors and threads."""

    BLOCK = telegraph._DENSITY_BLOCK
    P = TelegraphParams(c=1.0, lam=10.0)
    OVERFLOW = "the density overflows at c = 1.0, lam = 10.0, t = 1.0"

    @pytest.fixture
    def started(self, monkeypatch):
        # every Thread.start in the test, and no thread may die with an unhandled error
        threads, unhandled = [], []
        start = threading.Thread.start

        def counting(thread):
            threads.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        set_cpus(monkeypatch, {0, 1})
        before = threading.active_count()
        yield threads
        assert threading.active_count() == before
        assert unhandled == []

    def points(self, blocks, extra=0):
        return np.random.default_rng(blocks).uniform(-1.0, 1.0, blocks * self.BLOCK + extra)

    @pytest.mark.parametrize("affinity, count, helpers", [
        ({0, 1}, 2, 1), ({0}, 2, 0), (None, 2, 1), (None, 1, 0), (None, None, 0),
    ], ids=["affinity-2", "affinity-1", "count-2", "count-1", "count-unknown"])
    def test_helper_only_with_two_cpus(self, monkeypatch, started, affinity, count, helpers):
        # the affinity set, where it exists, and not the machine's count decides
        x = self.points(4, 5)
        two = w_density(self.P, 1.0, x)
        assert len(started) == 1
        set_cpus(monkeypatch, affinity, count)
        got = w_density(self.P, 1.0, x)
        assert len(started) == 1 + helpers
        assert got.tobytes() == two.tobytes()

    @pytest.mark.parametrize("n, helpers", [(BLOCK - 1, 0), (BLOCK, 0), (BLOCK + 1, 1)])
    def test_one_block_walks_alone(self, started, n, helpers):
        x = self.points(2)
        got = w_density(self.P, 1.0, x[:n])
        assert len(started) == helpers
        assert got.tobytes() == w_density(self.P, 1.0, x)[:n].tobytes()

    def test_repeated_calls_keep_their_bytes(self, started):
        x = self.points(5)
        want = w_density(self.P, 1.0, x).tobytes()
        for _ in range(20):
            assert w_density(self.P, 1.0, x).tobytes() == want
        assert len(started) == 21

    def test_concurrent_callers_keep_their_bytes(self, monkeypatch):
        # three callers, each with its helper, on more threads than cores and a short switch
        set_cpus(monkeypatch, {0, 1})
        x = self.points(5)
        want = w_density(self.P, 1.0, x).tobytes()
        got = []

        def call():
            got.extend(w_density(self.P, 1.0, x).tobytes() for _ in range(5))

        callers = [threading.Thread(target=call) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == [want] * 15

    def test_helper_error_reaches_caller(self, monkeypatch, started):
        caller, bessel = threading.current_thread(), telegraph.scaled_bessel

        class Boom(Exception):
            pass

        def failing(z):
            if threading.current_thread() is not caller:
                raise Boom
            return bessel(z)

        monkeypatch.setattr(telegraph, "scaled_bessel", failing)
        with pytest.raises(Boom):
            w_density(self.P, 1.0, self.points(4))
        assert len(started) == 1

    def test_helper_error_stops_caller_before_next_block(self, monkeypatch, started):
        # the caller's block 0 waits until the helper has failed on block 1 and ended
        caller, bessel = threading.current_thread(), telegraph.scaled_bessel
        failed, calls = threading.Event(), []

        def failing(z):
            if threading.current_thread() is caller:
                calls.append(z.size)
                assert failed.wait(60)
                started[0].join(60)
                assert not started[0].is_alive()
                return bessel(z)
            failed.set()
            raise KeyboardInterrupt  # a BaseException reaches the caller too

        monkeypatch.setattr(telegraph, "scaled_bessel", failing)
        with pytest.raises(KeyboardInterrupt):
            w_density(self.P, 1.0, self.points(6))
        assert calls == [self.BLOCK]

    @pytest.mark.parametrize("block", [0, 1], ids=["caller", "helper"])
    @pytest.mark.parametrize("bad", [math.inf, 1e308], ids=["z", "density"])
    def test_overflow_in_either_walker_refused(self, started, block, bad):
        spread2 = np.random.default_rng(5).uniform(0.0, 1.0, 4 * self.BLOCK)
        spread2[block * self.BLOCK + 7] = bad
        with pytest.raises(ValueError, match=f"^{re.escape(self.OVERFLOW)}$"):
            telegraph._bessel_density(self.P, 1.0, spread2, lambda s: (s, 1.0))
        assert len(started) == 1


class TestCdfBlocks:
    """w_cdf's blocked Poisson mixture against the one-term-at-a-time loop."""

    @staticmethod
    def spanning_points(p, t, blocks=3):
        # enough points for ``blocks`` whole row blocks plus a partial one
        counts, weights = telegraph._poisson_terms(p.lam * t)
        # counts 2k - 1 and 2k share one column k of the block
        rows = max(1, telegraph._CDF_BLOCK // np.unique((counts + 1) // 2).size)
        ct = p.c * t
        w = np.random.default_rng(rows).uniform(-1.05 * ct, 1.05 * ct, blocks * rows + 7)
        return w, counts, weights

    @pytest.mark.parametrize("lam_t", [1e-3, 1.0, 10.0, 1e3])
    def test_matches_loop_oracle(self, lam_t):
        p = TelegraphParams(c=1.5, lam=lam_t / 2.0)
        w, counts, weights = self.spanning_points(p, 2.0)
        got = w_cdf(p, 2.0, w)
        assert np.max(np.abs(got - loop_w_cdf(p, 2.0, w, counts, weights))) <= 1e-13
        for i in (0, 1, w.size // 2, w.size - 1):
            assert w_cdf(p, 2.0, float(w[i])) == got[i]

    def test_one_row_blocks_match_loop_oracle(self, monkeypatch):
        # a block smaller than one row of terms holds that one row
        p = TelegraphParams(c=1.0, lam=10.0)
        w = np.linspace(-1.02, 1.02, 41)
        counts, weights = telegraph._poisson_terms(10.0)
        monkeypatch.setattr(telegraph, "_CDF_BLOCK", 7)
        got = w_cdf(p, 1.0, w)
        assert np.max(np.abs(got - loop_w_cdf(p, 1.0, w, counts, weights))) <= 1e-13
        assert [w_cdf(p, 1.0, float(x)) for x in w] == got.tolist()

    def test_shape_kept(self):
        p = TelegraphParams(c=1.0, lam=3.0)
        w = np.linspace(-0.9, 0.9, 12).reshape(3, 4)
        assert w_cdf(p, 1.0, w).shape == (3, 4)
        assert w_cdf(p, 1.0, w).ravel().tolist() == w_cdf(p, 1.0, w.ravel()).tolist()
        assert w_cdf(p, 1.0, np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("lam_t", [1e4, 1e6])
    def test_symmetric_law_exact(self, lam_t):
        # F(0) = 1/2 and F(-w) + F(w) = 1 need the kept Poisson weights to sum to 1;
        # w = ct 2^-k keeps 1 -+ w/ct exact, so y and 1 - y are exact complements
        p = TelegraphParams(c=1.0, lam=lam_t)
        w = 2.0 ** -np.arange(4.0, 13.0, 2.0)
        cdf = w_cdf(p, 1.0, np.concatenate((-w, [0.0], w)))
        assert abs(cdf[w.size] - 0.5) <= 1e-15
        assert np.max(np.abs(cdf[:w.size] + cdf[w.size + 1:] - 1.0)) <= 1e-15

    def test_pair_law_is_symmetric_beta(self):
        # [I_y(k+1, k) + I_y(k, k+1)]/2 = I_y(k, k): N = 2k and N = 2k - 1 share a law
        k = np.arange(1.0, 501.0)[:, None]
        y = np.linspace(0.0, 1.0, 2001)
        pair = 0.5 * (special.betainc(k + 1, k, y) + special.betainc(k, k + 1, y))
        assert np.max(np.abs(pair - special.betainc(k, k, y))) <= 1e-14

    @pytest.mark.parametrize("lam_t", [10.0, 100.0])
    def test_monotone_on_dense_grid(self, lam_t):
        # a fixed-order sum of monotone terms: not one step down on 40,003 points
        cdf = w_cdf(TelegraphParams(c=1.0, lam=lam_t), 1.0, np.linspace(-1.0, 1.0, 40_003))
        assert np.all(np.diff(cdf) >= 0.0)

    @pytest.mark.parametrize("lam_t", [1.0, 10.0, 100.0])
    def test_matches_40_digit_oracle(self, lam_t):
        # absolute error: the 1e-16 Poisson cut bounds relative accuracy in the far
        # lower tail (F(-0.9) ~ 1.5e-26 at lam*t = 100)
        pytest.importorskip("mpmath")
        p = TelegraphParams(c=1.0, lam=lam_t)
        w = np.array([-0.9, -0.55, -0.2, 0.0, 0.35, 0.8])
        oracle = [mp_w_cdf(p, 1.0, x) for x in w.tolist()]
        assert np.max(np.abs(w_cdf(p, 1.0, w) - oracle)) <= 1e-15

    def test_ct_rounding_to_zero_is_an_atom_at_zero(self):
        # c * t underflows to 0: all the mass sits at w = 0, and w / (c * t) once warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf = w_cdf(TelegraphParams(c=1e-300, lam=1.0), 1e-300, [-1e-300, -0.0, 0.0, 1.0])
        assert cdf.tolist() == [0.0, 1.0, 1.0, 1.0]

    def test_nan_refused_by_name_inf_exact(self):
        p = TelegraphParams(c=1.0, lam=1.0)
        for w in (math.nan, [math.nan, 0.5], [[0.5, math.nan]]):
            with pytest.raises(ValueError, match=r"^w must not be NaN$"):
                w_cdf(p, 1.0, w)
        assert w_cdf(p, 1.0, [-math.inf, math.inf]).tolist() == [0.0, 1.0]
        assert (w_cdf(p, 0.0, -math.inf), w_cdf(p, 0.0, math.inf)) == (0.0, 1.0)

    @pytest.mark.parametrize("lam", [1e12, 1e300])
    def test_switch_budget_named(self, lam):
        # the CDF shares the paths' 2**30 budget and is refused before any term is formed
        p = TelegraphParams(c=1.0, lam=lam)
        with pytest.raises(
            ValueError, match=r"^lam = .* up to t = 1\.0 expects .* switches; at most 2\*\*30"
        ):
            w_cdf(p, 1.0, 0.0)

    def test_memory_bounded(self):
        # 2000 points at lam*t = 1e3 keep 526 Poisson terms, 263 once merged by
        # k; one unblocked (point, k) temporary would take 2000 * 263 * 8 B ~ 4.2 MB
        p = TelegraphParams(c=1.0, lam=1e3)
        counts = telegraph._poisson_terms(1e3)[0]
        assert (counts.size, np.unique((counts + 1) // 2).size) == (526, 263)
        w = np.linspace(-1.0, 1.0, 2000)
        tracemalloc.start()
        try:
            w_cdf(p, 1.0, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


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

    def test_overflow_named(self):
        # E[exp(1000 W(1))] ~ exp(999) once returned inf; scaled_mgf keeps it
        p = TelegraphParams(c=1.0, lam=1.0)
        named = r"^E\[exp\(s W\(t\)\)\] overflows at c = 1\.0, lam = 1\.0, s = 1000\.0, t = 1\.0$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1.0, np.array([0.5, 800.0, 1.0])):
                with pytest.raises(ValueError, match=named):
                    mgf(p, 1000.0, t)
            assert scaled_mgf(p, 1000.0, 1.0, 0.0) == math.inf
        assert math.isfinite(mgf(p, 1000.0, 0.5))

    def test_domain(self):
        p = TelegraphParams(c=1.0, lam=1.0)
        with pytest.raises(ValueError):
            mgf(p, 1.0, -0.5)
        with pytest.raises(ValueError):
            mgf(p, math.inf, 1.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, True, "1",
                                   pytest.param(10**400, id="1e400")])
    def test_s_rule(self, s):
        # s is a finite real number of either sign, not a bool, in both functions; an int past
        # the double range once escaped as OverflowError
        p = TelegraphParams(c=1.0, lam=1.0)
        with pytest.raises(ValueError, match=r"^s must be a finite real number, got "):
            scaled_mgf(p, s, 1.0, 0.0)
        with pytest.raises(ValueError, match=r"^s must be a finite real number, got "):
            mgf(p, s, 1.0)

    def test_log_scale_nan_and_shape_refused_by_name(self):
        p = TelegraphParams(c=1.0, lam=1.0)
        with pytest.raises(ValueError, match=r"^log_scale must not be NaN$"):
            scaled_mgf(p, 1.0, 0.5, math.nan)
        with pytest.raises(ValueError, match=r"^log_scale \(3,\) and t \(2,\) do not broadcast$"):
            scaled_mgf(p, 1.0, np.array([0.5, 1.0]), np.zeros(3))
        # a log_scale per time, or one for all of them, is taken
        times = np.array([0.5, 1.0])
        each, shared = scaled_mgf(p, 1.0, times, np.zeros(2)), scaled_mgf(p, 1.0, times, 0.0)
        assert each.tolist() == shared.tolist()


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

    @pytest.mark.parametrize("lam_t", [1e-30, 1e-16, 1e-12, 1e-8, 0.3, 0.5, 10.0, 300.0])
    def test_variance_matches_50_digit_oracle(self, lam_t):
        # the closed form cancels at small lam*t: it read 0.0 at 1e-30 and was
        # 23% off at 1e-16
        pytest.importorskip("mpmath")
        p = TelegraphParams(c=1.5, lam=2.0)
        t = lam_t / 2.0
        _, var = w_mean_var(p, t)
        assert var == pytest.approx(mp_w_variance(p, t), rel=1e-15, abs=0.0)

    def test_variance_log_uniform_sweep(self):
        pytest.importorskip("mpmath")
        p = TelegraphParams(c=0.7, lam=1.0)
        for t in (10.0 ** np.random.default_rng(3).uniform(-30.0, 3.0, 400)).tolist():
            _, var = w_mean_var(p, t)
            assert var == pytest.approx(mp_w_variance(p, t), rel=1e-15, abs=0.0), t

    @pytest.mark.parametrize("c, lam, t", [(1e-200, 1.0, 1e250), (1e-100, 1e300, 1e300),
                                           (1e-300, 1e300, 1e300)])
    def test_variance_past_the_range_of_its_factors(self, c, lam, t):
        # (c/lam)^2 or lam*t leaves the double range while the variance does not, or
        # underflows: these once read 0.0 for 1e-150 and were refused as overflows
        pytest.importorskip("mpmath")
        p = TelegraphParams(c=c, lam=lam)
        _, var = w_mean_var(p, t)
        assert var == pytest.approx(mp_w_variance(p, t), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("c, lam, t", [(1e300, 1e-300, 1e-10), (1e200, 1.0, 1.0),
                                           (1e150, 1.0, 1e10)])
    def test_variance_overflow_named(self, c, lam, t):
        # these once gave nan, an OverflowError and a silent inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the variance of W\(t\) overflows at c = "):
                w_mean_var(TelegraphParams(c=c, lam=lam), t)


_LOG10 = st.floats(-300.0, 300.0)  # log10 of a parameter
_NAMED = re.compile(r"\b(c|lam|s|t) = |\(-c\*t, c\*t\)")


@given(c=_LOG10, lam=_LOG10, t=_LOG10, s=_LOG10)
@example(c=0.0, lam=-308.0, t=0.0, s=0.0)  # lam = 1e-308: the path's gaps sum to inf
@example(c=0.0, lam=math.log10(5e-324), t=0.0, s=0.0)  # the least lam: 1 / lam is inf
@settings(max_examples=200, deadline=None)
def test_public_functions_return_finite_or_refuse_by_name(c, lam, t, s):
    # the library twin of the CLI's test_process_commands_report_or_print_finite:
    # each call returns finite values or a ValueError naming a parameter, unwarned
    p = TelegraphParams(c=10.0**c, lam=10.0**lam)
    t, s = 10.0**t, 10.0**s
    lam_t = p.lam * t
    calls = {
        "sample_w": lambda: sample_w(p, t, 3, seed=0),
        "w_density": lambda: w_density(p, t, 0.0),
        "w_atom_prob": lambda: w_atom_prob(p, t),
        "w_mean_var": lambda: w_mean_var(p, t),
        "mgf": lambda: mgf(p, s, t),
    }
    if lam_t <= 1e4:
        calls["w_cdf"] = lambda: w_cdf(p, t, [-0.5 * p.c * t, 0.0, 0.5 * p.c * t])
    if not 1e5 < lam_t <= 2.0**30:  # drawing up to 2^30 switches is slow, not wrong
        calls["sample_paths"] = lambda: next(sample_paths(p, [0.0, 0.5 * t, t], [0]))
    for name, call in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = call()
            except ValueError as exc:
                assert _NAMED.search(str(exc)), (name, str(exc))
            else:
                assert np.all(np.isfinite(out)), name
        assert [str(w.message) for w in caught] == [], name
