"""Benchmark for telhaz: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload {reproduce,noise_scale,kde_scale,paths,all}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the program is taken from ``src/`` next to this directory.
Passes run back to back, each in fresh processes, while a typical pass still
fits in ``--seconds``. Each operation of a pass is timed in seconds and
relative to a fixed reference computation run around it (``reference.py``),
which cancels the drift of a shared host's speed. Every pass checks its
outputs; a failed check counts in the error rate and the pass goes on. The
report lists each metric with unit, sample count, median and the highest
percentile that has at least ten samples beyond it.
The last line of standard output is one JSON object: the end-to-end metrics
with ``--trace 0``; with ``--trace 1`` one more pass runs under the span
recorder (``tracer.py``) and the per-layer metrics are printed instead.
See README.md for why each workload exists and what it stresses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import tracer
from reference import Clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROCESS_TIMEOUT_S = 120.0

ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

TARGETS = ("fig1", "fig2", "fig3", "fig4", "app1", "app2")
# paths: simulate-w with 2000 paths (402k rows), simulate-x with 500 (100.5k rows).
PATHS_C, PATHS_LAM, PATHS_GRID = 2.0, 15.0, 201
PATHS_W, PATHS_X = 2000, 500
# polynomial_c2 preset: r(t) = 15 t (t - 1)^2 + 2 + 0.001, for the band check.
POLY_ALPHA, POLY_FLOOR = 15.0, 2.001
INPROC_OPS = {"noise_scale": 6, "kde_scale": 3}

# Gated (BENCHMARK.json): defined and never 0 on every workload.
END_TO_END = {"setup_s": "s", "wall_rel": "ratio", "peak_rss_mb": "MB"}
# Printed only: each exists on one workload (invocations: CLI workloads).
WORKLOAD_METRICS = {
    "reproduce": {},
    "noise_scale": {
        "sample_w_lt10_s": "s",
        "sample_w_lt300_s": "s",
        "cdf_evals_per_s": "1/s",
        "density_evals_per_s": "1/s",
    },
    "kde_scale": {"load_values_per_s": "1/s", "band_s": "s"},
    "paths": {"rows_per_s": "1/s"},
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import.numpy_s": "s",
    "cli.import.scipy_special_s": "s",
    "cli.import.scipy_integrate_s": "s",
    "cli.import.telhaz_s": "s",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "special.calls": "count",
    "special.args": "count",
    "special.self_s": "s",
    "telegraph.self_s": "s",
    "telegraph.sample_w_s": "s",
    "telegraph.sample_w_peak_mb": "MB",
    "telegraph.w_cdf_calls": "count",
    "telegraph.w_cdf_s": "s",
    "telegraph.w_density_calls_per_cdf": "ratio",
    "telegraph.sample_path_calls": "count",
    "telegraph.integrate_path_calls": "count",
    "telegraph.integrate_path_s": "s",
    "hazard.self_s": "s",
    "hazard.rate_calls": "count",
    "hazard.cumulative_calls": "count",
    "hazard.validate_dominance_s": "s",
    "hazard.time_horizon_s": "s",
    "perturbed.self_s": "s",
    "perturbed.model_init_s": "s",
    "perturbed.band_calls": "count",
    "perturbed.band_s": "s",
    "perturbed.density_s": "s",
    "perturbed.cdf_s": "s",
    "perturbed.sample_path_values_s": "s",
    "estimation.self_s": "s",
    "estimation.kde_density_s": "s",
    "estimation.kde_cdf_s": "s",
    "estimation.confidence_band_s": "s",
    "estimation.defensibility_test_s": "s",
    "estimation.peak_mb": "MB",
    "estimation.usable_ratio": "ratio",
    "datasets.self_s": "s",
    "datasets.load_s": "s",
    "datasets.load_values": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}
IMPORT_PACKAGES = {"numpy": "numpy", "scipy.special": "scipy_special", "scipy.integrate": "scipy_integrate"}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or it does not start)."""


# -- processes ------------------------------------------------------------------


class Proc:
    def __init__(self, argv: list[str], log: Path):
        start = time.perf_counter()
        with open(log, "wb") as err:
            child = subprocess.Popen(argv, env=ENV, cwd=ROOT, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                watchdog.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = time.perf_counter() - start
        self.code = child.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.log = log


def _python(*args) -> list[str]:
    return [sys.executable, *map(str, args)]


def _cli(args: list[str], spans: Path | None) -> list[str]:
    if spans is None:
        return _python("-m", "telhaz.cli", *args)
    return _python(BENCH / "tracer.py", spans, *args)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check_program() -> None:
    if not (SRC / "telhaz" / "__init__.py").is_file():
        raise BenchError(f"no telhaz sources under {SRC}")
    log = _fresh_dir(WORK) / "check.log"
    probe = Proc(_python("-c", "import telhaz.cli, sys; sys.stderr.write(telhaz.cli.__file__)"), log)
    origin = log.read_text(errors="replace")
    if probe.code != 0 or not Path(origin).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"telhaz.cli does not import from {SRC}: {origin[-400:]}")


# -- one pass per workload ----------------------------------------------------------


class Pass:
    """What one pass measured: times, peak memory, operations and failures."""

    def __init__(self, attempted: int):
        self.setup_s: float | None = None
        self.wall_s: float | None = None
        self.wall_rel: float | None = None
        self.peak_rss_mb = 0.0
        self.invocations: list[float] = []
        self.attempted = attempted
        self.failures: dict[str, str] = {}
        self.metrics: dict[str, float] = {}
        self.trace: list[dict] = []
        self.rows = 0
        self.bytes = 0

    def add(self, proc: Proc) -> Proc:
        self.invocations.append(proc.wall_s)
        self.peak_rss_mb = max(self.peak_rss_mb, proc.peak_rss_mb)
        return proc

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, reason)


def _cli_setup(workdir: Path, p: Pass) -> None:
    """CLI set-up: output directories plus one warm import of telhaz.cli."""
    start = time.perf_counter()
    _fresh_dir(workdir)
    Proc(_python("-c", "import telhaz.cli"), workdir / "warm.log")
    p.setup_s = time.perf_counter() - start


def _run_cli(p: Pass, op: str, args: list[str], workdir: Path, trace: bool) -> Proc:
    spans = workdir / f"spans_{op}" if trace else None
    proc = p.add(Proc(_cli(args, spans), workdir / f"{op}.log"))
    if spans is not None and Path(f"{spans}.json").is_file():
        p.trace.append(json.loads(Path(f"{spans}.json").read_text())["summary"])
    return proc


def pass_reproduce(seed: int, workdir: Path, trace: bool) -> Pass:
    """The six paper targets at their default seed; ``seed`` is not used."""
    p = Pass(len(TARGETS))
    _cli_setup(workdir, p)
    expected = json.loads((BENCH / "reproduce_sha256.json").read_text())
    procs = {}
    clock = Clock()
    for target in TARGETS:
        args = ["reproduce", target, "--output-dir", str(workdir / target)]
        procs[target] = _run_cli(p, target, args, workdir, trace)
        clock.add(procs[target].wall_s)
    p.wall_s, p.wall_rel = clock.wall_s, clock.wall_rel
    for target, proc in procs.items():
        outdir = workdir / target
        files = sorted(outdir.iterdir()) if outdir.is_dir() else []
        p.bytes += sum(f.stat().st_size for f in files)
        p.rows += sum(_csv_rows(f) for f in files if f.suffix == ".csv")
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
        if proc.code != 0:
            p.fail(target, f"exit code {proc.code}: {proc.log.read_text(errors='replace')[-400:]}")
        elif got != expected[target]:
            p.fail(target, "output files differ from the recorded SHA-256 hashes")
    return p


def _csv_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return max(sum(1 for _ in fh) - 1, 0)


def pass_paths(seed: int, workdir: Path, trace: bool) -> Pass:
    p = Pass(2)
    _cli_setup(workdir, p)
    rng = random.Random(seed)
    common = ["--c", repr(PATHS_C), "--lam", repr(PATHS_LAM), "--grid-size", str(PATHS_GRID)]
    runs = {
        "simulate_w": (["simulate-w", *common, "--paths", str(PATHS_W)], PATHS_W, _w_ok),
        "simulate_x": (["simulate-x", "--hazard", "preset:polynomial_c2", *common,
                        "--paths", str(PATHS_X)], PATHS_X, _x_ok),
    }
    procs = {}
    clock = Clock()
    for op, (args, _, _) in runs.items():
        out = workdir / f"{op}.csv"
        args = [*args, "--seed", str(rng.randrange(2**31)), "--output", str(out)]
        procs[op] = _run_cli(p, op, args, workdir, trace)
        clock.add(procs[op].wall_s)
    p.wall_s, p.wall_rel = clock.wall_s, clock.wall_rel
    for op, (_, n_paths, ok) in runs.items():
        out = workdir / f"{op}.csv"
        if procs[op].code != 0 or not out.is_file():
            p.fail(op, f"exit code {procs[op].code}: {procs[op].log.read_text(errors='replace')[-400:]}")
            continue
        p.bytes += out.stat().st_size
        reason = _paths_check(out, n_paths, ok)
        if reason:
            p.fail(op, reason)
        else:
            p.rows += n_paths * PATHS_GRID
    if not p.failures:
        p.metrics["rows_per_s"] = p.rows / p.wall_s
    return p


def _paths_check(path: Path, n_paths: int, ok) -> str | None:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header[:2] != ["path_id", "t"] or data.shape != (n_paths * PATHS_GRID, 3):
        return f"expected {n_paths * PATHS_GRID} rows of 3 columns, got {data.shape}"
    grid = np.tile(np.linspace(0.0, 1.0, PATHS_GRID), n_paths)
    ids = np.repeat(np.arange(n_paths), PATHS_GRID)
    if not (np.array_equal(data[:, 0], ids) and np.allclose(data[:, 1], grid, rtol=0.0, atol=1e-15)):
        return "path ids or time grid differ from the requested ones"
    return None if ok(data[:, 1], data[:, 2]) else f"values outside their almost-sure range ({header[2]})"


def _w_ok(t, w) -> bool:
    """|W(t)| <= c t."""
    return bool(np.all(np.abs(w) <= PATHS_C * t * (1.0 + 1e-12)))


def _x_ok(t, x) -> bool:
    """a(t) <= X(t) <= b(t) with a, b the CDFs of the hazards r -+ c."""
    cum = POLY_ALPHA * (t**4 / 4.0 - 2.0 * t**3 / 3.0 + t**2 / 2.0) + POLY_FLOOR * t
    a = -np.expm1(PATHS_C * t - cum)
    b = -np.expm1(-(PATHS_C * t + cum))
    return bool(np.all((x >= a - 1e-12) & (x <= b + 1e-12)))


def pass_inproc(workload: str, seed: int, workdir: Path, trace: bool) -> Pass:
    p = Pass(INPROC_OPS[workload])
    _fresh_dir(workdir)
    out = workdir / "result.json"
    proc = Proc(_python(BENCH / "inproc.py", workload, seed, workdir, out, int(trace)), workdir / "worker.log")
    p.peak_rss_mb = proc.peak_rss_mb
    if proc.code != 0 or not out.is_file():
        for i in range(p.attempted):
            p.fail(f"op{i}", f"worker exit code {proc.code}: {proc.log.read_text(errors='replace')[-400:]}")
        return p
    res = json.loads(out.read_text())
    p.setup_s, p.wall_s, p.wall_rel, p.metrics = res["setup_s"], res["wall_s"], res["wall_rel"], res["ops"]
    p.attempted = res["attempted"]
    p.failures.update(res["failures"])
    if res["trace"] is not None:
        p.trace.append(res["trace"])
    return p


PASSES = {
    "reproduce": pass_reproduce,
    "noise_scale": lambda seed, d, trace: pass_inproc("noise_scale", seed, d, trace),
    "kde_scale": lambda seed, d, trace: pass_inproc("kde_scale", seed, d, trace),
    "paths": pass_paths,
}


# -- statistics ---------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def top_percentile(values: list[float]) -> str:
    """Highest of p50..p99.9 with at least ten samples beyond it, or '-'."""
    for q in (99.9, 99.0, 95.0, 90.0, 50.0):
        if len(values) * (1.0 - q / 100.0) >= 10.0:
            return f"p{q:g}={percentile(values, q):.6g}"
    return "-"


class Report:
    def __init__(self, workload: str):
        self.workload = workload
        self.rows: list[tuple[str, str, list[float], float]] = []

    def add(self, name: str, unit: str, samples: list[float], value: float | None = None) -> None:
        if samples:
            self.rows.append((name, unit, samples, percentile(samples, 50.0) if value is None else value))

    def value(self, name: str) -> float:
        for row_name, _, _, value in self.rows:
            if row_name == name:
                return value
        raise BenchError(f"{self.workload}: no pass measured {name}")

    def print(self, title: str) -> None:
        print(f"== {self.workload}: {title}")
        print(f"   {'metric':<38} {'unit':<6} {'n':>6} {'value':>14}  top percentile")
        for name, unit, samples, value in self.rows:
            print(f"   {name:<38} {unit:<6} {len(samples):>6} {value:>14.6g}  {top_percentile(samples)}")


# -- a run ----------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float) -> list[Pass]:
    """Passes back to back; the next one starts only if a typical pass still fits."""
    rng = random.Random(f"{workload}:{seed}")
    passes: list[Pass] = []
    cycles: list[float] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + percentile(cycles, 50.0) <= seconds:
        begin = time.perf_counter()
        passes.append(PASSES[workload](rng.randrange(2**31), WORK / workload / "pass", False))
        cycles.append(time.perf_counter() - begin)
    return passes


def end_to_end(workload: str, passes: list[Pass]) -> Report:
    report = Report(workload)
    report.add("setup_s", "s", [p.setup_s for p in passes if p.setup_s is not None])
    report.add("wall_s", "s", [p.wall_s for p in passes if p.wall_s is not None])
    report.add("wall_rel", "ratio", [p.wall_rel for p in passes if p.wall_rel is not None])
    report.add("peak_rss_mb", "MB", [p.peak_rss_mb for p in passes])
    calls = [t for p in passes for t in p.invocations]
    if calls:
        report.add("invocation_s_p50", "s", calls, percentile(calls, 50.0))
        report.add("invocation_s_p90", "s", calls, percentile(calls, 90.0))
    for name, unit in WORKLOAD_METRICS[workload].items():
        report.add(name, unit, [p.metrics[name] for p in passes if name in p.metrics])
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    outcomes = [1.0] * failed + [0.0] * (attempted - failed)
    report.add("error_rate", "ratio", outcomes, failed / attempted)
    return report


def import_times() -> dict[str, float]:
    """``-X importtime`` of ``import telhaz.cli`` in a fresh process, median of 3."""
    runs = []
    for i in range(3):
        log = WORK / f"importtime{i}.log"
        Proc(_python("-X", "importtime", "-c", "import telhaz.cli"), log)
        cumulative, telhaz_self = {}, 0
        for line in log.read_text().splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
            if m:
                self_us, cum_us, name = int(m[1]), int(m[2]), m[4]
                cumulative[name] = cum_us
                if name == "telhaz" or name.startswith("telhaz."):
                    telhaz_self += self_us
        runs.append({
            "cli.import_s": (cumulative.get("telhaz", 0) + cumulative.get("telhaz.cli", 0)) / 1e6,
            "cli.import.telhaz_s": telhaz_self / 1e6,
            **{f"cli.import.{short}_s": cumulative.get(pkg, 0) / 1e6 for pkg, short in IMPORT_PACKAGES.items()},
        })
    return {k: percentile([r[k] for r in runs], 50.0) for k in runs[0]}


def per_layer(traced: Pass, untraced_wall_s: float) -> dict[str, float]:
    s = tracer.merge(traced.trace)
    wall_s = traced.wall_s or 0.0  # 0 when the traced pass failed to run
    self_s, incl = s.get("layer_self_s", {}), s.get("inclusive_s", {})
    calls, counters = s.get("calls", {}), s.get("counters", {})

    def method_calls(layer: str, method: str) -> int:
        return sum(n for name, n in calls.items() if name.startswith(layer + ".") and name.endswith("." + method))

    w_cdf_calls = calls.get("telegraph.w_cdf", 0)
    grid_points = counters.get("estimation.grid_points", 0)
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in tracer.LAYERS}
    out.update({
        "cli.rows_written": traced.rows,
        "cli.bytes_written": traced.bytes,
        "special.calls": s.get("boundary_calls", {}).get("special", 0),
        "special.args": counters.get("special.args", 0),
        "telegraph.sample_w_s": incl.get("telegraph.sample_w", 0.0),
        "telegraph.sample_w_peak_mb": s.get("peaks_mb", {}).get("telegraph.sample_w", 0.0),
        "telegraph.w_cdf_calls": w_cdf_calls,
        "telegraph.w_cdf_s": incl.get("telegraph.w_cdf", 0.0),
        "telegraph.w_density_calls_per_cdf": counters.get("telegraph.w_density_in_cdf", 0) / max(w_cdf_calls, 1),
        "telegraph.sample_path_calls": calls.get("telegraph.sample_path", 0),
        "telegraph.integrate_path_calls": calls.get("telegraph.integrate_path", 0),
        "telegraph.integrate_path_s": incl.get("telegraph.integrate_path", 0.0),
        "hazard.rate_calls": method_calls("hazard", "rate"),
        "hazard.cumulative_calls": method_calls("hazard", "cumulative"),
        "hazard.validate_dominance_s": incl.get("hazard.validate_dominance", 0.0),
        "hazard.time_horizon_s": incl.get("hazard.time_horizon", 0.0),
        "perturbed.model_init_s": incl.get("perturbed.PerturbedModel.__init__", 0.0),
        "perturbed.band_calls": calls.get("perturbed.PerturbedModel.band", 0),
        "perturbed.band_s": incl.get("perturbed.PerturbedModel.band", 0.0),
        "perturbed.density_s": incl.get("perturbed.PerturbedModel.density", 0.0),
        "perturbed.cdf_s": incl.get("perturbed.PerturbedModel.cdf", 0.0),
        "perturbed.sample_path_values_s": incl.get("perturbed.PerturbedModel.sample_path_values", 0.0),
        "estimation.kde_density_s": incl.get("estimation.kde_density", 0.0),
        "estimation.kde_cdf_s": incl.get("estimation.kde_cdf", 0.0),
        "estimation.confidence_band_s": incl.get("estimation.confidence_band", 0.0),
        "estimation.defensibility_test_s": incl.get("estimation.defensibility_test", 0.0),
        "estimation.peak_mb": s.get("peaks_mb", {}).get("estimation", 0.0),
        "estimation.usable_ratio": counters.get("estimation.usable_points", 0) / max(grid_points, 1),
        "datasets.load_s": incl.get("datasets.load", 0.0),
        "datasets.load_values": counters.get("datasets.load_values", 0),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(self_s.values()),
        "trace.overhead_s": wall_s - untraced_wall_s,
    })
    out.update(import_times())
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    passes = measure(workload, seed, seconds)
    report = end_to_end(workload, passes)
    report.print(f"end to end, {len(passes)} passes, seed {seed}")
    metrics = {name: {"value": report.value(name), "unit": unit} for name, unit in END_TO_END.items()}
    if trace:
        traced = PASSES[workload](random.Random(f"{workload}:{seed}:trace").randrange(2**31),
                                  WORK / workload / "traced", True)
        passes.append(traced)
        layers = Report(workload)
        values = per_layer(traced, report.value("wall_s"))
        for name, unit in PER_LAYER.items():
            layers.add(name, unit, [values[name]])
        layers.print("per layer, one traced pass")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    for p in passes:
        for op, reason in p.failures.items():
            print(f"   FAILED {workload}/{op}: {reason}")
    return metrics, sum(p.attempted for p in passes), sum(len(p.failures) for p in passes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*PASSES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = list(PASSES) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        check_program()
        for workload in workloads:
            m, a, f = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            prefix = f"{workload}." if len(workloads) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
