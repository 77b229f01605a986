import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from conftest import direct_kde, full_density, matrix_kde, pairwise_sum, where_cdf
from telhaz.datasets import builtin
from telhaz.estimation import (
    _BLOCK,
    EPANECHNIKOV,
    BandConfig,
    Kernel,
    Sample,
    _FLOOR,
    UpperTailError,
    _node,
    _plan,
    _row_sums,
    _windows,
    confidence_band,
    defensibility_test,
    hazard_estimate,
    kde,
)
from telhaz.hazard import ConstantHazard, PiecewiseLinearHazard
from telhaz.presets import APP1, APP2

SQRT5 = math.sqrt(5.0)
# bandwidths log-uniform over the positive doubles the estimator meets, with a
# share of everyday ones, where kernels reach neighbouring observations
BANDWIDTHS = st.one_of(
    st.floats(math.log(5e-324), math.log(1e300)).map(lambda x: max(math.exp(x), 5e-324)),
    st.floats(1e-2, 1e2),
)
LIFETIMES = st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=200)


def rowwise_matrix_kde(values, h: float, t):
    """:func:`matrix_kde` a few MB of rows at a time; each row's sum is its own, bits and all."""
    ta = np.asarray(t, dtype=float)
    if ta.ndim == 0:
        return matrix_kde(values, h, t)
    parts = np.array_split(ta.reshape(-1), max(1, ta.size * len(values) // 2**21))
    pieces = [matrix_kde(values, h, part) for part in parts]
    return tuple(np.concatenate([p[i] for p in pieces]).reshape(ta.shape) for i in (0, 1))


def assert_plan(values, t, h):
    """kde's plan for ``t``: each point's window holds its kernel's support, and the
    blocks cover the grid in order, each within both bounds; returns the blocks."""
    n, flat = values.size, np.asarray(t, dtype=float).reshape(-1)
    lo, hi = _windows(values, flat, h)
    with np.errstate(over="ignore"):  # the observations next to a window are off the mask
        left = (flat - values[np.maximum(lo - 1, 0)]) / h
        right = (flat - values[np.minimum(hi, n - 1)]) / h
    assert np.all((lo == 0) | (left > SQRT5)) and np.all((hi == n) | (right < -SQRT5))
    blocks = list(_plan(lo, hi, n))
    assert [block[0] for block in blocks] == [0] + [block[1] for block in blocks[:-1]]
    assert blocks[-1][1] == flat.size
    for start, stop, a, b in blocks:
        rows = stop - start
        assert rows >= 1 and (a, b) == (lo[start:stop].min(), hi[start:stop].max())
        if rows > 1:
            assert rows * (b - a) <= max(int(np.sum(hi[start:stop] - lo[start:stop])), _FLOOR)
            assert rows * _node(n, a, b)[1] <= _BLOCK
    return blocks


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
        assert EPANECHNIKOV.l2_constant == pytest.approx(numeric, abs=1e-12)

    def test_density_integrates_to_one(self):
        numeric, _ = integrate.quad(lambda u: float(EPANECHNIKOV.density(u)), -SQRT5, SQRT5)
        assert numeric == pytest.approx(1.0, abs=1e-12)


class TestSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            Sample(np.array([1.0, 2.0]))
        assert Sample(np.array([3.0, 2.0, 1.0])).values.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            Sample(np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            Sample(np.array([1.0, 2.0, math.inf]))

    def test_sorts(self):
        sample = Sample([3.0, 1.0, 2.0])
        assert sample.values.tolist() == [1.0, 2.0, 3.0]
        assert sample.n == 3
        with pytest.raises(ValueError):
            sample.values[0] = 5.0  # frozen storage

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [2, 0, 3, 1]], ids=["sorted", "unsorted"])
    def test_callers_array_is_copied(self, order):
        values = np.array([1.0, 2.0, 3.0, 4.0])[order]
        given = values.copy()
        sample = Sample(values)
        np.testing.assert_array_equal(values, given)  # the sort ran on the copy
        values[:] = [-1.0, math.nan, 0.0, 9.0]
        assert sample.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(ValueError):
            sample.values[0] = 5.0

    @pytest.mark.parametrize("ordered", [True, False], ids=["sorted", "unsorted"])
    def test_memory_one_copy(self, ordered):
        # one private copy of the values, sorted in place, and boolean temporaries for the checks
        values = np.random.default_rng(3).exponential(size=100_000)
        if ordered:
            values.sort()
        tracemalloc.start()
        try:
            Sample(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * values.nbytes

    def test_validation_messages_after_sorting(self):
        for raw, message in [
            (5.0, "at least 3 values, got 1"),
            ([[1.0, 2.0], [3.0, 4.0]], "at least 3 values, got 4"),
            ([3.0, math.nan, 1.0], "finite and > 0"),
            ([3.0, 0.0, 1.0], "finite and > 0"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                Sample(raw)


class TestKde:
    def test_single_location_spike(self):
        sample = Sample([5.0, 5.0, 5.0])
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
            sample = Sample(np.random.default_rng(5).exponential(80.0, size=10_000))
        else:
            sample = builtin(name).sample
        grid = BandConfig(h=h, alpha=0.025, grid_size=32).resolve_grid(sample)
        f, F = kde(sample, h, grid)
        direct = np.array([direct_kde(sample.values.tolist(), h, t) for t in grid.tolist()])
        np.testing.assert_allclose(f, direct[:, 0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(F, direct[:, 1], rtol=1e-12, atol=0.0)

    @staticmethod
    def _bit_case(name, h):
        """The sample and the grids (any shape, sorted or not) of one bit-identity case."""
        if name == "exp_1e4":
            sample = Sample(np.random.default_rng(5).exponential(80.0, size=10_000))
        elif name in ("exp_127", "exp_128", "exp_129"):
            # rows of 127 and 128 are one node of numpy's pairwise sum, rows of 129 two
            n = int(name.removeprefix("exp_"))
            sample = Sample(np.random.default_rng(n).exponential(size=n))
            return sample, [np.linspace(-0.5, float(sample.values[-1]) + 0.5, 64)]
        elif name == "exp_1e5":
            sample = Sample(np.random.default_rng(8).exponential(size=100_000))
            return sample, [BandConfig(h=h, alpha=0.025).resolve_grid(sample)]
        elif name == "exp_2e4_unsorted":
            # 13 grid points per block: shuffled blocks with wide windows, blocks left
            # and right of the sample with empty windows, and +-inf alone and mixed in
            rng = np.random.default_rng(9)
            sample = Sample(rng.exponential(size=20_000))
            inf = math.inf
            flat = np.concatenate([
                rng.permutation(np.linspace(-1.0, 12.0, 65)),
                np.linspace(-5.0, -1.0, 13),
                np.linspace(50.0, 40.0, 13),
                np.full(13, inf),
                np.full(13, -inf),
                rng.permutation([-inf, inf, *np.linspace(0.0, 3.0, 11)]),
            ])
            return sample, [flat.reshape(10, 13)]
        elif name == "edges":
            # observations on and one to three doubles either side of t0 -+ sqrt(5) h
            t0 = 10.0
            edges = []
            for edge in (t0 - SQRT5 * h, t0 + SQRT5 * h):
                for _ in range(3):
                    edge = math.nextafter(edge, -math.inf)
                for _ in range(7):
                    edges.append(edge)
                    edge = math.nextafter(edge, math.inf)
            sample = Sample(edges)
            near = [math.nextafter(t0, -math.inf), t0, math.nextafter(t0, math.inf)]
            return sample, [t0, np.array(near), np.array([near[0]]), np.array([near[2]])]
        else:
            sample = builtin(name.removesuffix("_2e5")).sample
        reach = 3.0 * SQRT5 * h  # past both ends of the sample's kernel support
        lo, hi = sample.values[0] - reach, sample.values[-1] + reach
        if name.endswith("_2e5"):
            return sample, [np.linspace(lo, hi, 200_000)]
        ts = np.linspace(lo, hi, 301)
        return sample, [ts, ts[:300].reshape(20, 15), float(ts[150])]

    @pytest.mark.parametrize(
        "name, h",
        [
            ("melanoma_46", 6.0),
            ("service_86", 75.0),
            ("exp_1e4", 20.0),
            ("exp_1e5", 0.02),
            ("exp_1e5", 0.2),
            ("exp_127", 0.3),
            ("exp_128", 0.3),
            ("exp_129", 0.01),
            ("exp_129", 0.3),
            ("melanoma_46_2e5", 6.0),
            ("exp_2e4_unsorted", 0.05),
            ("exp_2e4_unsorted", 1e308),
            ("edges", 0.3),
            ("edges", 7e-3),
        ],
    )
    def test_bit_identical_to_matrix_kde(self, name, h):
        sample, grids = self._bit_case(name, h)
        for t in grids:
            assert_plan(sample.values, t, h)
            got, want = kde(sample, h, t), rowwise_matrix_kde(sample.values, h, t)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert np.shape(got[0]) == np.shape(want[0])

    def test_kernel_evaluated_only_within_reach(self, monkeypatch):
        # at h = 0.02 under 9% of the sample lies inside any band point's support
        sample = Sample(np.random.default_rng(8).exponential(size=100_000))
        grid = BandConfig(h=0.02, alpha=0.025).resolve_grid(sample)
        evaluate = Kernel.evaluate
        pairs = []

        def counted(self, u):
            pairs.append(np.size(u))
            return evaluate(self, u)

        monkeypatch.setattr(Kernel, "evaluate", counted)
        kde(sample, 0.02, grid)
        assert 0 < sum(pairs) < sample.n * grid.size / 5

    def test_overflowing_density_refused_by_bandwidth(self):
        sample = Sample([1.0, 1.5, 2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # u = 0.25/1e-320 overflows to +inf: outside the support, on its own side
            assert kde(sample, 1e-320, 1.25) == (0.0, 0.25)
            message = r"^bandwidth 1e-320 is too small: f_hat overflows at t = 1\.5$"
            with pytest.raises(ValueError, match=message):
                kde(sample, 1e-320, [1.25, 1.75, 1.5, 2.0])
            with pytest.raises(ValueError, match=message):
                confidence_band(sample, BandConfig(h=1e-320, alpha=0.025, grid_size=3))
            # f_hat = 4.2e307 is finite, its band is not
            message = r"^bandwidth 2e-309 is too small: the band overflows at t = 1\.5$"
            with pytest.raises(ValueError, match=message):
                confidence_band(sample, BandConfig(h=2e-309, alpha=0.025, grid_size=3))

    @given(LIFETIMES, BANDWIDTHS, st.data())
    @settings(max_examples=150, deadline=None)
    def test_finite_and_bit_identical_or_bandwidth_refused(self, raw, h, data):
        sample = Sample(raw)
        near = st.tuples(st.sampled_from(sample.values.tolist()), st.floats(-3.0, 3.0))
        points = st.one_of(
            st.sampled_from([-math.inf, math.inf]),
            st.floats(-2e3, 2e3),  # past both ends of the sample, and between
            near.map(lambda pair: pair[0] + pair[1] * h),  # on the kernels' edges
        )
        t = np.array(data.draw(st.lists(points, min_size=1, max_size=30)))
        with np.errstate(over="ignore"):
            want = matrix_kde(sample.values, h, t)
        assert_plan(sample.values, t, h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            over = np.isinf(want[0])
            if over.any():
                at = float(t[over].min())
                message = f"bandwidth {h!r} is too small: f_hat overflows at t = {at:.6g}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    kde(sample, h, t)
                return
            f, F = kde(sample, h, t)
        assert np.array_equal(f, want[0]) and np.array_equal(F, want[1])
        assert np.all(np.isfinite(f) & (f >= 0.0)) and np.all((F >= 0.0) & (F <= 1.0))

    @given(LIFETIMES, BANDWIDTHS, st.integers(2, 40))
    @settings(max_examples=100, deadline=None)
    def test_band_finite_and_bit_identical_or_bandwidth_refused(self, raw, h, size):
        sample = Sample(raw)
        config = BandConfig(h=h, alpha=0.025, grid_size=size)
        try:
            grid = config.resolve_grid(sample)
        except ValueError:
            assume(False)
        with np.errstate(over="ignore"):
            f, F = matrix_kde(sample.values, h, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                band = confidence_band(sample, config)
            except ValueError as exc:
                overflow = "f_hat overflows" if np.isinf(f).any() else "the band overflows"
                assert str(exc).startswith(f"bandwidth {h!r} is too small: {overflow} at t = ")
                return
        assert np.array_equal(band.density, f) and np.array_equal(band.cdf, F)
        assert np.all(np.isfinite(f) & (f >= 0.0)) and np.all((F >= 0.0) & (F <= 1.0))
        assert np.all(np.isfinite(band.upper[band.usable]))

    def test_bit_identical_with_one_row_blocks(self):
        # n above _BLOCK: every block holds a single grid point
        sample = Sample(np.random.default_rng(6).exponential(size=_BLOCK + 1000))
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

    def test_nan_refused_by_name_inf_exact(self, melanoma):
        for t in (math.nan, [math.nan, 50.0]):
            for estimate in (kde, hazard_estimate):
                with pytest.raises(ValueError, match=r"^t must not be NaN$"):
                    estimate(melanoma, 5.0, t)
        f, F = kde(melanoma, 5.0, [-math.inf, math.inf])
        assert (f.tolist(), F.tolist()) == ([0.0, 0.0], [0.0, 1.0])


class TestPlan:
    """kde's blocks, planned from each grid point's own window, against the matrix oracle."""

    @staticmethod
    def assert_bits(sample, h, t):
        with np.errstate(over="ignore"):  # an overflowed u is outside, as in kde
            want = rowwise_matrix_kde(sample.values, h, t)
        got = kde(sample, h, t)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("h", [0.05, 1e308, 5e-324])
    def test_unsorted_repeated_and_infinite_points(self, h):
        rng = np.random.default_rng(11)
        sample = Sample(rng.exponential(size=5_000))
        grid = np.concatenate([np.linspace(-1.0, 12.0, 200), [-math.inf, math.inf] * 3])
        grid = np.concatenate([grid, grid[rng.integers(0, grid.size, 100)]])  # repeats
        for t in (grid, rng.permutation(grid), np.sort(grid)[::-1]):
            assert_plan(sample.values, t, h)
            self.assert_bits(sample, h, t)

    def test_point_with_an_empty_window(self, melanoma):
        # the midpoint of the widest gap, and points past both ends of the sample
        values, h = melanoma.values, 1e-3
        gap = int(np.argmax(np.diff(values)))
        t = np.array([values[0] - 1.0, (values[gap] + values[gap + 1]) / 2, 50.0, values[-1] + 1.0])
        lo, hi = _windows(values, t, h)
        assert np.count_nonzero(lo == hi) >= 3
        assert_plan(values, t, h)
        self.assert_bits(melanoma, h, t)

    def test_merged_window_straddling_the_root_split(self):
        # n past 2^17: two rows padded to the whole row would pass _BLOCK. The
        # points sit either side of the root's split, each window a few
        # observations, so a plan by windows alone would merge them all into one
        # block padded to the root: 16 rows of n doubles per array.
        n = (1 << 17) + (1 << 12)
        sample = Sample(np.random.default_rng(12).exponential(size=n))
        split = n // 2 - (n // 2) % 8
        t = sample.values[split - 8 : split + 8].copy()
        h = float(np.min(np.diff(t))) / 10.0
        lo, hi = _windows(sample.values, t, h)
        assert lo.min() < split < hi.max() and t.size * (hi.max() - lo.min()) <= _FLOOR
        assert len(assert_plan(sample.values, t, h)) >= 2
        tracemalloc.start()
        try:
            kde(sample, h, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * _BLOCK + 2**16  # a padded k and K of at most _BLOCK doubles each
        self.assert_bits(sample, h, t)

    @pytest.mark.parametrize("name, h", [("melanoma_46", 6.0), ("service_86", 75.0)])
    def test_band_grids(self, name, h):
        # the 1e5-value band grids are test_bit_identical_to_matrix_kde's exp_1e5 cases
        sample = builtin(name).sample
        grid = BandConfig(h=h, alpha=0.025).resolve_grid(sample)
        blocks = assert_plan(sample.values, grid, h)
        assert len(blocks) < grid.size
        self.assert_bits(sample, h, grid)


class TestRowSums:
    """kde's row sums over one node of numpy's pairwise tree, against whole padded rows."""

    @staticmethod
    def spread_rows(rng, shape):
        # magnitudes over twelve decades, so that any other order of additions shows
        return rng.random(shape) * 10.0 ** rng.integers(-6, 6, shape)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 136, 1000, 100_000])
    def test_numpy_summation_layout(self, n):
        rows = self.spread_rows(np.random.default_rng(n), (3, n))
        sums = rows.sum(axis=-1)
        for row, got in zip(rows, sums.tolist()):
            assert pairwise_sum(row.tolist()) == got == float(np.add.reduce(row)), (
                f"numpy {np.__version__} no longer sums a float64 row by the pairwise tree "
                "that estimation._row_sums replays; kde's bits depend on it"
            )

    @staticmethod
    def windows(n):
        """[a, b) windows of an n-long row: empty, whole, one element, on and across splits."""
        splits, todo = set(), [(0, n)]
        while todo:  # every split point of the tree
            lo, m = todo.pop()
            if m > 128:
                half = m // 2 - (m // 2) % 8
                splits.add(lo + half)
                todo += [(lo, half), (lo + half, m - half)]
        cases = [(0, 0), (n, n), (0, n), (0, 1), (n - 1, n), (n // 3, n // 3)]
        root = [n // 2 - (n // 2) % 8] if n > 128 else []
        for s in root + sorted(splits)[:: max(1, len(splits) // 6)]:
            cases += [(s, s), (s - 1, s), (s, s + 1), (s - 5, s), (s, s + 5), (s - 3, s + 3)]
        rng = np.random.default_rng(n)
        for width in (w for w in (1, 2, 9, 100, 300, n // 2) if w <= n):
            a = int(rng.integers(0, n - width + 1))
            cases.append((a, a + width))
        return cases

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 136, 1000, 4099, 100_000])
    def test_equal_to_whole_padded_rows(self, n):
        rng = np.random.default_rng(n + 1)
        for a, b in self.windows(n):
            k = self.spread_rows(rng, (2, b - a))
            K = rng.random((2, b - a))
            k_row = np.zeros((2, n))
            K_row = np.zeros((2, n))
            K_row[:, :a] = 1.0
            k_row[:, a:b], K_row[:, a:b] = k, K
            k_sum, K_sum = _row_sums(k, K, n, a)
            assert k_sum.shape == K_sum.shape == (2,)
            assert np.array_equal(k_sum / n, k_row.mean(axis=-1)), (n, a, b)
            assert np.array_equal(K_sum / n, K_row.mean(axis=-1)), (n, a, b)

    @pytest.mark.parametrize("a", [0, 10**6 - 8], ids=["first", "last"])
    def test_padding_bounded_by_the_node(self, a):
        # a window in the first or last leaf of a 1e6-long row: padded to <= 128
        # elements, not to the row's 8 MB
        rng = np.random.default_rng(4)
        k, K = rng.random((1, 8)), rng.random((1, 8))
        tracemalloc.start()
        try:
            _row_sums(k, K, 10**6, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**10


class TestHazardEstimate:
    def test_upper_tail_refused(self, melanoma):
        far = float(melanoma.values[-1]) + 20.0
        with pytest.raises(UpperTailError):
            hazard_estimate(melanoma, 6.0, far)

    def test_recovers_constant_hazard_on_synthetic_data(self):
        rng = np.random.default_rng(123)
        sample = Sample(rng.exponential(1.0 / 0.0125, size=500))
        grid = np.linspace(
            float(np.quantile(sample.values, 0.25)),
            float(np.quantile(sample.values, 0.65)),
            101,
        )
        rates = hazard_estimate(sample, 20.0, grid)
        assert float(np.max(np.abs(rates - 0.0125))) / 0.0125 < 0.30

    @pytest.mark.parametrize("t", [1.5, [1.0, 1.5, 2.0]], ids=["scalar", "array"])
    def test_overflowing_ratio_refused(self, t):
        # f_hat(1.5) ~ 1.2e308 stays finite, f_hat / (1 - F_hat) does not: a scalar once
        # returned inf and an array raised numpy's overflow warning
        sample = Sample([1.0, 1.5, 2.0, 3.0])
        with pytest.raises(ValueError, match=(
            r"^bandwidth 7e-310 is too small: the hazard estimate overflows at t = 1\.5$"
        )):
            hazard_estimate(sample, 7e-310, t)


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
        # the same 1st and (n-1)-th order statistics, so both default grids agree
        small = Sample(np.concatenate([big[:1], big[8:-8:8], big[-2:]]))
        large = Sample(big)
        config = BandConfig(h=25.0, alpha=0.025)
        narrow = confidence_band(large, config)
        wide = confidence_band(small, config)
        np.testing.assert_array_equal(narrow.grid, wide.grid)
        assert np.nanmean(narrow.halfwidth) < np.nanmean(wide.halfwidth)

    def test_memory_does_not_grow_with_grid(self):
        # one (512 x 1e5) matrix of doubles alone would be ~400 MB
        sample = Sample(np.random.default_rng(8).exponential(size=100_000))
        config = BandConfig(h=0.02, alpha=0.025)
        tracemalloc.start()
        try:
            confidence_band(sample, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

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

    def test_bandwidth_stored_as_float(self):
        # a float32 h once formed n * h in float32 in the band, while kde used float(h)
        h = np.float32(6.3)
        config = BandConfig(h=h, alpha=0.025)
        assert type(config.h) is float and config.h == float(h)
        sample = builtin("melanoma_46").sample
        band32 = confidence_band(sample, config)
        band64 = confidence_band(sample, BandConfig(h=float(h), alpha=0.025))
        assert np.array_equal(band32.upper, band64.upper, equal_nan=True)

    def test_unusable_points_are_masked(self):
        # two clusters far apart leave a dead zone where the density vanishes
        sample = Sample([1.0, 1.1, 1.2, 99.0, 99.1, 99.2])
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

    def test_no_usable_grid_point_refused(self):
        # h = 1e-6 leaves the density estimate 0 at every point of the grid
        sample = Sample([1.0, 2.0, 3.0, 1000.0])
        with pytest.raises(ValueError, match="^no usable grid points"):
            defensibility_test(sample, BandConfig(h=1e-6, alpha=0.025), ConstantHazard(1.0), 0.5)

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


_BAND_SAMPLE = Sample(np.linspace(0.1, 1.0, 50) ** 2)


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
