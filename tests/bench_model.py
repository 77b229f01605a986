"""Per-layer benchmark of the model layer: building the figure models and their nu.

Run it with ``pytest tests/bench_model.py --benchmark-only``; add
``--benchmark-autosave`` to keep the timings in ``.benchmarks/`` and
``--benchmark-compare`` to set them against the last saved run. The name
keeps the plain test suite from collecting it. Building a model checks
dominance on the whole support with one ``min_slack`` call; nu is inf at
once where that slack is positive, and doubled for only where it is 0 as
t -> inf (fig2 (c)).
"""

import functools

import pytest

from telhaz.presets import model_fig1, model_fig2, model_fig3

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
