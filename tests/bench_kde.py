"""Per-layer benchmark of estimation and datasets: ``kde`` on 1e5 lifetimes and the
512-point band grid, ``Sample`` from 1e5 unsorted lifetimes, and ``datasets.load`` of
a 1e5-line file, one value a line (numpy's reader) and comma-separated (the line reader).

Run it with ``pytest tests/bench_kde.py --benchmark-only``; add
``--benchmark-autosave`` to keep the timings in ``.benchmarks/`` and
``--benchmark-compare`` to set them against the last saved run. The name
keeps the plain test suite from collecting it. At h = 0.02 a grid point's
kernel reaches under 9% of the sample, at h = 0.2 about half of it, and at
h = 2 most of it. ``melanoma_46`` at h = 6 is ``kde`` at the paper's own
sample size, where a call costs its fixed per-block work more than its pairs.
"""

import numpy as np
import pytest

from telhaz.datasets import builtin, load
from telhaz.estimation import BandConfig, Sample, kde


@pytest.fixture(scope="module")
def sample():
    return Sample(np.random.default_rng(8).exponential(size=100_000))


@pytest.mark.parametrize("h", [0.02, 0.2, 2.0])
def test_kde_band_grid(benchmark, sample, h):
    grid = BandConfig(h=h, alpha=0.025).resolve_grid(sample)
    f, F = benchmark.pedantic(kde, args=(sample, h, grid), rounds=5, warmup_rounds=1)
    assert np.all(np.isfinite(f)) and np.all((F >= 0.0) & (F <= 1.0))


def test_kde_melanoma_band_grid(benchmark):
    sample = builtin("melanoma_46").sample
    grid = BandConfig(h=6.0, alpha=0.025).resolve_grid(sample)
    f, F = benchmark.pedantic(kde, args=(sample, 6.0, grid), rounds=50, warmup_rounds=5)
    assert grid.size == 512 and np.all(np.isfinite(f)) and np.all((F >= 0.0) & (F <= 1.0))


def test_sample_1e5_unsorted(benchmark):
    values = np.random.default_rng(8).exponential(size=100_000)
    sample = benchmark.pedantic(Sample, args=(values,), rounds=20, warmup_rounds=2)
    assert sample.n == values.size and np.all(sample.values[1:] >= sample.values[:-1])


def test_load_1e5_lines(benchmark, sample, tmp_path):
    path = tmp_path / "lifetimes.txt"
    path.write_text("".join(f"{value!r}\n" for value in sample.values.tolist()))
    data = benchmark.pedantic(load, args=(path,), rounds=5, warmup_rounds=1)
    assert data.sample.values.tolist() == sample.values.tolist()


def test_load_1e5_lines_csv(benchmark, sample, tmp_path):
    path = tmp_path / "lifetimes.csv"
    values = sample.values.tolist()
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(values[::2], values[1::2])))
    data = benchmark.pedantic(load, args=(path,), rounds=5, warmup_rounds=1)
    assert data.sample.values.tolist() == sample.values.tolist()
