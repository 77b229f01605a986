"""Per-layer benchmark of the noise law: the Bessel densities of W(t) and X(t) on 1e6 points,
and the CDFs of W(t) and X(t) one scalar point at a time.

Run it with ``pytest tests/bench_noise.py --benchmark-only``; add
``--benchmark-autosave`` to keep the timings in ``.benchmarks/`` and
``--benchmark-compare`` to set them against the last saved run. The name
keeps the plain test suite from collecting it. The points are those of the
``noise_scale`` workload: sorted, W(t) at c = 1, lam = 10, t = 1, and X(t)
of the fig3 model at t = 0.5. ``scaled_bessel`` alone runs on the W(t)
density's arguments, z = lam sqrt(t^2 - w^2) on [0, 10], and on the three
401-point blocks of arguments that fig3's ``density.csv`` gives it, one per
time, where the cost per call outweighs the cost per argument. The scalar
CDF cases make the workload's 100 calls each, at the interior points of a
uniform grid over [-c t, c t] for W(t) and over the band [a, b] for X(t); they
time the checks and set-up every call repeats. Select them with ``-k scalar``.
"""

import numpy as np
import pytest

from telhaz import telegraph
from telhaz.cli import _x_density
from telhaz.presets import FIG3_TIMES, model_fig3
from telhaz.special import scaled_bessel
from telhaz.telegraph import TelegraphParams, w_cdf, w_density

POINTS = 1_000_000
PARAMS = TelegraphParams(c=1.0, lam=10.0)
X_TIME = 0.5
W_TIME = 1.0
CDF_POINTS = 100


@pytest.fixture(scope="module")
def w_points():
    return np.sort(np.random.default_rng(8).uniform(-1.0, 1.0, POINTS))


def test_w_density(benchmark, w_points):
    f = benchmark.pedantic(w_density, args=(PARAMS, 1.0, w_points), rounds=5, warmup_rounds=1)
    assert np.all(np.isfinite(f)) and np.all(f > 0.0)


def test_x_density(benchmark):
    model = model_fig3()
    band = model.band(X_TIME)
    x = np.sort(np.random.default_rng(8).uniform(band.a, band.b, POINTS))
    f = benchmark.pedantic(model.density, args=(x, X_TIME), rounds=5, warmup_rounds=1)
    assert np.all(np.isfinite(f)) and np.all(f > 0.0)


def test_scaled_bessel(benchmark, w_points):
    z = PARAMS.lam * np.sqrt((1.0 - w_points) * (1.0 + w_points))
    i0e, i1e_over_z = benchmark.pedantic(scaled_bessel, args=(z,), rounds=5, warmup_rounds=1)
    assert np.all(i0e > 0.0) and np.all(i1e_over_z > 0.0)


@pytest.fixture(scope="module")
def fig3_blocks():
    """The arguments of each ``scaled_bessel`` call behind fig3's ``density.csv``."""
    model, blocks = model_fig3(), []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(telegraph, "scaled_bessel", lambda z: blocks.append(z) or scaled_bessel(z))
        for t in FIG3_TIMES:
            _x_density(model, t, 401)
    assert [z.size for z in blocks] == [401] * len(FIG3_TIMES)
    return blocks


def test_scaled_bessel_fig3_blocks(benchmark, fig3_blocks):
    pairs = benchmark(lambda: [scaled_bessel(z) for z in fig3_blocks])
    assert all(np.all(i0e > 0.0) and np.all(i1e_over_z > 0.0) for i0e, i1e_over_z in pairs)


def _interior(lo, hi):
    return np.linspace(lo, hi, CDF_POINTS + 2)[1:-1].tolist()


def _is_cdf(values):
    return all(0.0 <= v <= 1.0 for v in values) and values == sorted(values)


def test_scalar_w_cdf(benchmark):
    grid = _interior(-PARAMS.c * W_TIME, PARAMS.c * W_TIME)
    # the warm-up round takes the first call's import of scipy.special out of the timing
    values = benchmark.pedantic(lambda: [w_cdf(PARAMS, W_TIME, w) for w in grid],
                                rounds=50, warmup_rounds=1)
    assert _is_cdf(values)


def test_scalar_x_cdf(benchmark):
    model = model_fig3()
    band = model.band(X_TIME)
    grid = _interior(band.a, band.b)
    values = benchmark.pedantic(lambda: [model.cdf(x, X_TIME) for x in grid],
                                rounds=50, warmup_rounds=1)
    assert _is_cdf(values)
