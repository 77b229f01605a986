"""Per-layer benchmark of the CLI's table writer: ``_write_table`` into an ``io.StringIO``.

Run it with ``pytest tests/bench_cli.py --benchmark-only``; add
``--benchmark-autosave`` to keep the timings in ``.benchmarks/`` and
``--benchmark-compare`` to set them against the last saved run. The name
keeps the plain test suite from collecting it. The tables are those of
``band --points 200000`` (4 columns) and of the ``paths`` workload's
``simulate-w`` (2,000 paths of 201 points, c = 2, lam = 15). Their values
are computed once, outside the timed call, so only formatting and writing
are timed.
"""

import contextlib
import io

import numpy as np

from telhaz.cli import _path_table, _rows, _write_table
from telhaz.presets import model_fig3
from telhaz.telegraph import TelegraphParams, sample_paths

BAND_POINTS = 200_000
PATHS, PATH_POINTS = 2_000, 201


def write(header, rows) -> str:
    """The bytes ``_write_table`` writes for ``header`` and ``rows``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_table(None, header, rows)
    return out.getvalue()


def test_band_table(benchmark):
    band = model_fig3().band(np.linspace(0.0, 2.0, BAND_POINTS))

    def table():  # the rows are formatted as they are written, so each round needs its own
        return (("t", "a", "b", "width"), _rows(band.t, band.a, band.b, band.width)), {}

    text = benchmark.pedantic(write, setup=table, rounds=5, warmup_rounds=1)
    assert text.count("\n") == 1 + BAND_POINTS


def test_path_table(benchmark):
    grid = np.linspace(0.0, 1.0, PATH_POINTS)
    params = TelegraphParams(c=2.0, lam=15.0)
    paths = list(sample_paths(params, grid, range(PATHS)))

    def table():
        return _path_table("w", paths, grid), {}

    text = benchmark.pedantic(write, setup=table, rounds=5, warmup_rounds=1)
    assert text.count("\n") == 1 + PATHS * PATH_POINTS
