"""The per-layer benchmarks still run: each ``tests/bench_*.py`` once, untimed.

The plain suite does not collect the benchmark files, so a rename in the
library would break them unseen. With ``--benchmark-disable`` each benchmark
calls its function once and checks its result, in one pytest subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import telhaz

ROOT = Path(__file__).resolve().parents[1]


def test_per_layer_benchmarks_run():
    pytest.importorskip("pytest_benchmark")
    files = sorted(str(path) for path in (ROOT / "tests").glob("bench_*.py"))
    assert files
    src = str(Path(telhaz.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
         *files],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
