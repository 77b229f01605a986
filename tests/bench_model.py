"""Per-layer benchmark of the model layer: the figure models, their nu and the paths' draws.

Run it with ``pytest tests/bench_model.py --benchmark-only``; add
``--benchmark-autosave`` to keep the timings in ``.benchmarks/`` and
``--benchmark-compare`` to set them against the last saved run. The name
keeps the plain test suite from collecting it. Building a model checks
dominance on the whole support with one ``min_slack`` call; nu is inf at
once where that slack is positive, and doubled for only where it is 0 as
t -> inf (fig2 (c)). The path draws are those of ``simulate-w --paths 2000``
and ``simulate-x --hazard preset:polynomial_c2 --paths 500`` at c = 2,
lam = 15 on 201 points of [0, 1], without formatting. The W path cases
reach what those draws do not: many gap blocks per path (lam*t = 1e6), long
blocks (lam*t = 3000), and a grid of 1e5 points. The scalar cases time one
call at one time, where the checks of the argument are most of the cost:
``hazard.cumulative(0.5)`` and ``band(0.5)`` of the fig3 model; select them
with ``-k scalar``.
"""

import functools

import numpy as np
import pytest

from telhaz.perturbed import PerturbedModel
from telhaz.presets import HAZARDS, model_fig1, model_fig2, model_fig3
from telhaz.telegraph import TelegraphParams, sample_paths

NOISE = TelegraphParams(c=2.0, lam=15.0)
GRID = np.linspace(0.0, 1.0, 201)

# name: (lam, grid points on [0, 1], paths), at c = 2
PATH_CASES = {
    "lamt_1e6": (1e6, 201, 3),
    "lamt_3000": (3000.0, 201, 200),
    "grid_1e5": (15.0, 100_000, 20),
}

BUILDERS = {
    "fig1": model_fig1,
    **{f"fig2{case}": functools.partial(model_fig2, case) for case in "abc"},
    "fig3": model_fig3,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_build(benchmark, name):
    model = benchmark.pedantic(BUILDERS[name], rounds=200, warmup_rounds=5)
    assert model.slack.holds


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_build_and_total_excess_hazard(benchmark, name):
    def nu():
        return BUILDERS[name]().total_excess_hazard  # a fresh model: nu is a cached property

    value = benchmark.pedantic(nu, rounds=200, warmup_rounds=5)
    assert value > 0.0


def test_scalar_cumulative(benchmark):
    hazard = model_fig3().hazard
    assert benchmark(hazard.cumulative, 0.5) == hazard.cumulative(np.array([0.5]))[0]


def test_scalar_band(benchmark):
    model = model_fig3()
    band = benchmark(model.band, 0.5)
    assert type(band.width) is float and 0.0 < band.a < band.b < 1.0


def test_sample_paths_w(benchmark):
    paths = benchmark.pedantic(lambda: list(sample_paths(NOISE, GRID, range(2000))),
                               rounds=5, warmup_rounds=1)
    w = np.array(paths)
    assert w.shape == (2000, GRID.size)
    assert np.all(np.abs(w) <= NOISE.c * GRID)


@pytest.mark.parametrize("name", sorted(PATH_CASES))
def test_sample_paths_w_case(benchmark, name):
    lam, points, count = PATH_CASES[name]
    params, grid = TelegraphParams(c=2.0, lam=lam), np.linspace(0.0, 1.0, points)
    paths = benchmark.pedantic(lambda: list(sample_paths(params, grid, range(count))),
                               rounds=5, warmup_rounds=1)
    assert len(paths) == count
    assert all(np.all(np.abs(w) <= params.c * grid) for w in paths)


def test_sample_paths_x(benchmark):
    model = PerturbedModel(HAZARDS["polynomial_c2"], NOISE)
    paths = benchmark.pedantic(lambda: list(model.sample_paths(GRID, range(500))),
                               rounds=5, warmup_rounds=1)
    x = np.array(paths)
    assert x.shape == (500, GRID.size)
    band = model.band(GRID)
    assert np.all((band.a <= x) & (x <= band.b))
