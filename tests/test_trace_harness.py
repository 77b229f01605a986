"""Smoke test of the benchmark's span recorder against the library as it stands.

The traced benchmark wraps the public functions of each layer module by name;
when a refactor renames or privatizes them, its per-layer metrics read 0
without any error. One traced call per density shows that every layer module
still imports and that the special-function layer is still seen.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from telhaz import telegraph
from telhaz.hazard import ConstantHazard
from telhaz.perturbed import PerturbedModel
from telhaz.telegraph import TelegraphParams, w_density

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_special_layer_traced_once_per_density():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer(track_peaks=False)
    params = TelegraphParams(c=1.0, lam=15.0)
    model = PerturbedModel(ConstantHazard(2.0), params)
    band = model.band(1.0)
    w = np.linspace(-0.5, 0.5, 5)
    x = np.linspace(band.a, band.b, 9)[1:-1]
    tracer.install()
    try:
        # through the module attribute, which install rebinds, as the benchmark calls it
        telegraph.w_density(params, 1.0, w)
        model.density(x, 1.0)
    finally:
        tracer.uninstall()
    assert telegraph.w_density is w_density  # uninstall restored the library
    for layer in tracer_module.LAYERS:
        assert f"telhaz.{layer}" in sys.modules
    summary = tracer.summary()
    special_calls = {k: v for k, v in summary["calls"].items() if k.startswith("special.")}
    assert sum(special_calls.values()) == 2, special_calls
    assert summary["boundary_calls"]["special"] == 2
    assert summary["counters"]["special.args"] == w.size + x.size


def test_path_samplers_traced_once_per_table():
    # each sampler is one span per call: its checks and R(grid); the paths are drawn as they are
    # read, after the span has closed
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer(track_peaks=False)
    model = PerturbedModel(ConstantHazard(2.0), TelegraphParams(c=1.0, lam=15.0))
    grid = np.linspace(0.0, 1.0, 11)
    tracer.install()
    try:
        paths = list(model.sample_paths(grid, range(2)))
    finally:
        tracer.uninstall()
    assert len(paths) == 2
    calls = tracer.summary()["calls"]
    assert calls["telegraph.sample_paths"] == 1, calls
    assert calls["perturbed.PerturbedModel.sample_paths"] == 1, calls
