"""Per-layer benchmark of the noise law: the Bessel densities of W(t) and X(t) on 1e6 points.

Run it with ``pytest tests/bench_noise.py --benchmark-only``; add
``--benchmark-autosave`` to keep the timings in ``.benchmarks/`` and
``--benchmark-compare`` to set them against the last saved run. The name
keeps the plain test suite from collecting it. The points are those of the
``noise_scale`` workload: sorted, W(t) at c = 1, lam = 10, t = 1, and X(t)
of the fig3 model at t = 0.5. ``scaled_bessel`` alone runs on the W(t)
density's arguments, z = lam sqrt(t^2 - w^2) on [0, 10].
"""

import numpy as np
import pytest

from telhaz.presets import model_fig3
from telhaz.special import scaled_bessel
from telhaz.telegraph import TelegraphParams, w_density

POINTS = 1_000_000
PARAMS = TelegraphParams(c=1.0, lam=10.0)
X_TIME = 0.5


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
