"""One pass of an in-process workload, run in a fresh process.

    python perfbench/inproc.py WORKLOAD SEED WORKDIR RESULT_JSON TRACE

Set-up (``import telhaz`` plus input generation) is timed as ``setup_s``; the
pass itself as ``wall_s``, the sum of its operations' times, and as
``wall_rel``, the same relative to the reference computation run between
operations (``reference.py``). Output checks run after the pass, outside both
timings. With TRACE = 1 the pass runs under the span recorder, with tracemalloc
peaks, and the span summary goes into the result.
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()

import numpy as np  # noqa: E402  (imports count as set-up time)
from telhaz import datasets, estimation, hazard, presets, telegraph  # noqa: E402

# noise_scale: law of W(t) at lam*t = 10 (per-call bound) and 300 (memory bound).
NOISE_C, NOISE_LAM = 1.0, 10.0
NOISE_T = {"lt10": 1.0, "lt300": 30.0}
# n = 1e5 at lam*t = 10 (the DKW check needs it). At lam*t = 300, n = 2e4 keeps
# the rows as wide (~380 columns) at ~0.3 GB peak; with 1e5 (~1.5 GB) half the
# time was the kernel zeroing fresh pages, which varied most between runs.
NOISE_PATHS = {"lt10": 100_000, "lt300": 20_000}
CDF_POINTS = 100
DENSITY_POINTS = 1_000_000
X_TIME = 0.5  # the fig3 model, at the middle one of its three times
DKW_EPS = 0.01  # P{sup |F_n - F| > eps} <= 2 exp(-2 n eps^2) = 2 e^-20

# kde_scale: lifetimes from a constant hazard, tested against that hazard.
KDE_N = 100_000
KDE_RATE = 1.0
KDE_H = 0.02
KDE_ALPHA = 0.025
KDE_C = 0.01
KDE_CHECK_POINTS = 16
REL_TOL = 1e-12


def _setup_noise(rng, workdir):
    model = presets.model_fig3()
    band = model.band(X_TIME)
    ct = NOISE_C * NOISE_T["lt10"]
    return {
        "params": telegraph.TelegraphParams(c=NOISE_C, lam=NOISE_LAM),
        "model": model,
        "seeds": [int(s) for s in rng.integers(0, 2**31, size=2)],
        "w_grid": np.linspace(-ct, ct, CDF_POINTS + 2)[1:-1],
        "x_grid": np.linspace(band.a, band.b, CDF_POINTS + 2)[1:-1],
        "w_points": np.sort(rng.uniform(-ct, ct, DENSITY_POINTS)),
        "x_points": np.sort(rng.uniform(band.a, band.b, DENSITY_POINTS)),
    }


def _pass_noise(inp, op):
    p, model = inp["params"], inp["model"]
    t10 = NOISE_T["lt10"]
    op("sample_w_lt10", lambda: telegraph.sample_w(p, t10, NOISE_PATHS["lt10"], inp["seeds"][0]))
    op("sample_w_lt300", lambda: telegraph.sample_w(p, NOISE_T["lt300"], NOISE_PATHS["lt300"], inp["seeds"][1]))
    op("w_cdf", lambda: np.array([telegraph.w_cdf(p, t10, float(w)) for w in inp["w_grid"]]))
    op("x_cdf", lambda: np.array([model.cdf(float(x), X_TIME) for x in inp["x_grid"]]))
    op("w_density", lambda: telegraph.w_density(p, t10, inp["w_points"]))
    op("x_density", lambda: model.density(inp["x_points"], X_TIME))


def _variance_ok(w, t, p):
    """Sample variance within 5 standard errors of the closed form."""
    _, var = telegraph.w_mean_var(p, t)
    centered = w - w.mean()
    s2 = float(np.mean(centered**2))
    se = math.sqrt(max(float(np.mean(centered**4)) - s2 * s2, 0.0) / w.size)
    return abs(s2 - var) <= 5.0 * se


def _cdf_ok(values):
    return bool(np.all((values >= 0.0) & (values <= 1.0)) and np.all(np.diff(values) >= 0.0))


def _mass_ok(xs, f, lam_t):
    """Interior density integrates to 1 minus the two endpoint atoms."""
    if not (np.all(np.isfinite(f)) and np.all(f >= 0.0)):
        return False
    mass = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(xs)))
    return abs(mass + math.exp(-lam_t) - 1.0) <= 1e-4


def _check_noise(inp, res):
    p = inp["params"]
    bad = {}
    for key, t in NOISE_T.items():
        w = res.get(f"sample_w_{key}")
        if w is not None:
            bound = NOISE_C * t * (1.0 + 1e-12)
            if w.shape != (NOISE_PATHS[key],) or np.any(np.abs(w) > bound):
                bad[f"sample_w_{key}"] = "shape or |w| <= c t"
            elif not _variance_ok(w, t, p):
                bad[f"sample_w_{key}"] = "variance outside 5 sigma of w_mean_var"
    for key in ("w_cdf", "x_cdf"):
        if key in res and not _cdf_ok(res[key]):
            bad[key] = "CDF not monotone in [0, 1]"
    w, F = res.get("sample_w_lt10"), res.get("w_cdf")
    if w is not None and F is not None and "sample_w_lt10" not in bad:
        empirical = np.searchsorted(np.sort(w), inp["w_grid"], side="right") / w.size
        if np.max(np.abs(empirical - F)) > DKW_EPS:
            bad["sample_w_lt10"] = "DKW bound against w_cdf exceeded"
    lam_t = NOISE_LAM * NOISE_T["lt10"]
    if "w_density" in res and not _mass_ok(inp["w_points"], res["w_density"], lam_t):
        bad["w_density"] = "mass of W(t) density"
    if "x_density" in res and not _mass_ok(inp["x_points"], res["x_density"], inp["model"].noise.lam * X_TIME):
        bad["x_density"] = "mass of X(t) density"
    return bad


def _noise_metrics(times):
    return {
        "sample_w_lt10_s": times["sample_w_lt10"],
        "sample_w_lt300_s": times["sample_w_lt300"],
        "cdf_evals_per_s": 2 * CDF_POINTS / (times["w_cdf"] + times["x_cdf"]),
        "density_evals_per_s": 2 * DENSITY_POINTS / (times["w_density"] + times["x_density"]),
    }


def _setup_kde(rng, workdir):
    values = rng.exponential(1.0 / KDE_RATE, KDE_N)
    path = Path(workdir) / "lifetimes.txt"
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()), encoding="utf-8")
    return {"path": path, "values": np.sort(values)}


def _pass_kde(inp, op):
    config = estimation.BandConfig(h=KDE_H, alpha=KDE_ALPHA)
    baseline = hazard.ConstantHazard(KDE_RATE)
    # An operation whose input failed raises on None and counts as failed too.
    data = op("load", lambda: datasets.load(inp["path"]))
    report = op("defensibility_test", lambda: estimation.defensibility_test(data.sample, config, baseline, KDE_C))
    op("hazard_estimate", lambda: estimation.hazard_estimate(data.sample, KDE_H, report.band.grid))


def _direct_kde(values, t):
    """f_hat and F_hat at t as plain sums over the sample (the O(n) reference)."""
    u = (t - values) / KDE_H
    r5 = math.sqrt(5.0)
    k = np.maximum(3.0 / (4.0 * r5) * (1.0 - u * u / 5.0), 0.0)
    K = np.where(u < -r5, 0.0, np.where(u > r5, 1.0, 0.5 + 3.0 / (4.0 * r5) * (u - u**3 / 15.0)))
    return math.fsum(k) / (values.size * KDE_H), math.fsum(K) / values.size


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _check_kde(inp, res):
    bad = {}
    data, report, rate = res.get("load"), res.get("defensibility_test"), res.get("hazard_estimate")
    values = inp["values"]
    if data is not None and not np.array_equal(data.sample.values, values):
        bad["load"] = "loaded values differ from the written ones"
    if report is not None:
        band = report.band
        picks = np.flatnonzero(band.usable)
        picks = picks[np.linspace(0, picks.size - 1, KDE_CHECK_POINTS).astype(int)]
        for i in picks:
            f, F = _direct_kde(values, band.grid[i])
            if not (_close(f, band.density[i]) and _close(F, band.cdf[i])):
                bad["defensibility_test"] = f"f_hat/F_hat differ from the direct sum at t = {band.grid[i]!r}"
                break
        slack = np.where(band.usable, (band.upper - band.rate) - np.abs(KDE_RATE - band.rate), np.nan)
        max_c = max(0.0, float(np.nanmin(slack)))
        margin_ok = np.allclose(report.margin[band.usable], slack[band.usable] - KDE_C, rtol=REL_TOL, atol=0.0)
        if band.grid.size != 512 or not margin_ok:
            bad["defensibility_test"] = "grid size or margin"
        elif max_c != report.max_admissible_c or report.holds != (KDE_C <= max_c):
            bad["defensibility_test"] = "max_admissible_c or verdict differs from the band arrays"
        if rate is not None:
            u = band.usable
            if not np.allclose(rate[u], band.rate[u], rtol=REL_TOL, atol=0.0):
                bad["hazard_estimate"] = "hazard_estimate differs from the band's rate"
    return bad


def _kde_metrics(times):
    return {"load_values_per_s": KDE_N / times["load"], "band_s": times["defensibility_test"]}


WORKLOADS = {
    "noise_scale": (_setup_noise, _pass_noise, _check_noise, _noise_metrics),
    "kde_scale": (_setup_kde, _pass_kde, _check_kde, _kde_metrics),
}


def main(argv):
    workload, seed, workdir, out, trace = argv[0], int(argv[1]), argv[2], argv[3], argv[4] == "1"
    setup, run_pass, check, metrics = WORKLOADS[workload]
    inputs = setup(np.random.default_rng(seed), workdir)
    setup_s = time.perf_counter() - T0

    from reference import Clock  # after set-up: its reference array is not set-up

    results, times, failures = {}, {}, {}

    def op(name, call):
        start = time.perf_counter()
        try:
            results[name] = call()
        except Exception:
            failures[name] = traceback.format_exc(limit=3)
        times[name] = time.perf_counter() - start
        clock.add(times[name])
        return results.get(name)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(track_peaks=True)
        tracer.install()
    clock = Clock()
    run_pass(inputs, op)
    summary = None
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.dump(str(Path(workdir) / "spans"))

    for name, reason in check(inputs, results).items():
        failures.setdefault(name, reason)
    result = {
        "setup_s": setup_s,
        "wall_s": clock.wall_s,
        "wall_rel": clock.wall_rel,
        "attempted": len(times),
        "failures": failures,
        "ops": metrics(times) if not failures else {},
        "trace": summary,
    }
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
