"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Statistical gates use exact samplers with fixed seeds, so the suite
is deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, special

from conftest import ks_critical, time_horizon
from telhaz.datasets import builtin
from telhaz.estimation import EPANECHNIKOV, BandConfig, defensibility_test
from telhaz.hazard import PolynomialHazard
from telhaz.perturbed import PerturbedModel
from telhaz.presets import (
    APP1,
    APP2,
    FIG3_TIMES,
    HAZARDS,
    model_fig2,
    model_fig3,
)
from telhaz.telegraph import TelegraphParams, mgf, sample_w, w_atom_prob, w_density


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_w_normalization():
    started = time.perf_counter()
    worst = 0.0
    for lam in (1.0, 5.0, 15.0):
        for c in (0.5, 1.0, 2.0):
            for t in (0.25, 1.0, 2.0):
                p = TelegraphParams(c=c, lam=lam)
                interior, _ = integrate.quad(
                    lambda x: w_density(p, t, x), -c * t, c * t,
                    epsabs=1e-11, epsrel=1e-11, limit=300,
                )
                worst = max(worst, abs(2.0 * w_atom_prob(p, t) + interior - 1.0))
    elapsed = time.perf_counter() - started
    _report(
        "01 noise-integral normalization",
        worst < 1e-8 and elapsed < 5.0,
        f"max |mass - 1| = {worst:.2e} over 27 cases in {elapsed:.2f}s",
    )


def test_criterion_02_mgf_monte_carlo():
    started = time.perf_counter()
    p = TelegraphParams(c=1.0, lam=1.0)
    w = sample_w(p, 1.0, 100_000, seed=20_240_601)
    worst_pull = 0.0
    for s in (-2.0, -1.0, 1.0):
        values = np.exp(s * w)
        se = values.std(ddof=1) / math.sqrt(values.size)
        pull = abs(values.mean() - mgf(p, s, 1.0)) / se
        worst_pull = max(worst_pull, pull)
    elapsed = time.perf_counter() - started
    _report(
        "02 generating function vs Monte Carlo",
        worst_pull < 3.0 and elapsed < 10.0,
        f"max |pull| = {worst_pull:.2f} sigma over s in {{-2,-1,1}} in {elapsed:.2f}s",
    )


def test_criterion_03_telegraph_equation_residual():
    delta = 3e-5
    worst = 0.0
    for lam, c in ((1.0, 1.0), (15.0, 0.5), (5.0, 2.0)):
        p = TelegraphParams(c=c, lam=lam)
        for s in (-2.0, -1.0, 1.0, 2.0):
            for t in (0.25, 0.5, 1.0, 2.0):
                m0 = mgf(p, s, t)
                mp = mgf(p, s, t + delta)
                mm = mgf(p, s, t - delta)
                second = (mp - 2.0 * m0 + mm) / delta**2
                first = (mp - mm) / (2.0 * delta)
                residual = abs(second + 2.0 * lam * first - s * s * c * c * m0)
                worst = max(worst, residual / (s * s * c * c * m0))
    _report(
        "03 telegraph-equation residual",
        worst < 1e-4,
        f"max relative residual = {worst:.2e} on the (s, t) grid",
    )


def test_criterion_04_x_normalization():
    model = model_fig3()
    worst = 0.0
    for t in FIG3_TIMES:
        band = model.band(t)
        interior, _ = integrate.quad(
            lambda x: model.density(x, t), band.a, band.b,
            epsabs=1e-10, epsrel=1e-10, limit=300,
        )
        worst = max(worst, abs(2.0 * model.atom_prob(t) + interior - 1.0))
    _report(
        "04 perturbed-process normalization",
        worst < 1e-6,
        f"max |mass - 1| = {worst:.2e} at t in {FIG3_TIMES}",
    )


def test_criterion_05_boundary_limits():
    offset = 1e-4
    worst = 0.0
    cases = [
        (model_fig3(), 0.25),
        (PerturbedModel(HAZARDS["polynomial_c1"], TelegraphParams(c=1.0, lam=2.0)), 1.0),
    ]
    for model, t in cases:
        lam, c = model.noise.lam, model.noise.c
        band = model.band(t)
        surv = model.hazard.survival(t)
        shared = lam / (2.0 * c * surv) * (1.0 + lam * t / 2.0)
        lower_limit = shared * math.exp(-(lam + c) * t)
        upper_limit = shared * math.exp(-(lam - c) * t)
        worst = max(
            worst,
            abs(model.density(band.a + offset, t) - lower_limit) / lower_limit,
            abs(model.density(band.b - offset, t) - upper_limit) / upper_limit,
        )
    _report(
        "05 density boundary limits",
        worst < 0.01,
        f"max relative gap = {worst:.2%} at 1e-4 inside each edge",
    )


def test_criterion_06_moments_vs_monte_carlo():
    model = model_fig3()
    worst_pull = 0.0
    for i, t in enumerate((0.5, 1.0, 2.0)):
        w = sample_w(model.noise, t, 100_000, seed=555 + i)
        x = -np.expm1(-(model.hazard.cumulative(t) + w))
        mean_se = x.std(ddof=1) / math.sqrt(x.size)
        pull_mean = abs(x.mean() - model.mean(t)) / mean_se
        centered_sq = (x - x.mean()) ** 2
        var_se = centered_sq.std(ddof=1) / math.sqrt(x.size)
        pull_var = abs(x.var(ddof=1) - model.variance(t)) / var_se
        worst_pull = max(worst_pull, pull_mean, pull_var)

    ts = np.concatenate([np.geomspace(1e-3, 2.5, 512), np.asarray(FIG3_TIMES)])
    ts.sort()
    increasing = bool(np.all(np.diff(model.mean(ts)) > -1e-14))

    hazard = HAZARDS["polynomial_c1"]
    decreasing = True
    for t in (0.5, 1.0, 2.0):
        means = [
            PerturbedModel(hazard, TelegraphParams(c=c, lam=15.0)).mean(t)
            for c in (0.25, 0.5, 1.0)
        ]
        decreasing &= means[0] >= means[1] >= means[2]

    _report(
        "06 moments vs Monte Carlo + monotonicity",
        worst_pull < 3.0 and increasing and decreasing,
        f"max |pull| = {worst_pull:.2f} sigma; mean increasing in t: {increasing}; "
        f"decreasing in amplitude: {decreasing}",
    )


def test_criterion_07_band_width_limit():
    soft = model_fig2("c")
    limit_c = soft.terminal_band_width()
    ok_c = abs(limit_c - 0.268) <= 1e-3
    ok_ab = all(model_fig2(case).terminal_band_width() <= 1e-6 for case in ("a", "b"))
    _report(
        "07 terminal band width",
        ok_c and ok_ab,
        f"case c: exp(-nu) = {limit_c:.6f} (target 0.268 +- 0.001); cases a, b vanish",
    )


def test_criterion_08_application_one():
    started = time.perf_counter()
    sample = builtin(APP1["dataset"]).sample
    config = BandConfig(h=APP1["h"], alpha=APP1["alpha"])
    held = defensibility_test(sample, config, APP1["baseline"], APP1["c"])
    rejected = defensibility_test(sample, config, APP1["baseline"], 0.01)
    elapsed = time.perf_counter() - started
    ok = (
        held.holds
        and not rejected.holds
        and held.max_admissible_c >= 0.0004
        and elapsed < 2.0
    )
    _report(
        "08 constant-hazard case study",
        ok,
        f"holds at c=0.0004: {held.holds}; fails at c=0.01: {not rejected.holds}; "
        f"max admissible c = {held.max_admissible_c:.6f} in {elapsed:.2f}s",
    )


def test_criterion_09_application_two():
    sample = builtin(APP2["dataset"]).sample
    config = BandConfig(h=APP2["h"], alpha=APP2["alpha"])
    report = defensibility_test(sample, config, APP2["baseline"], APP2["c"])
    ok = report.holds and report.max_admissible_c >= 0.00025
    _report(
        "09 piecewise-hazard case study",
        ok,
        f"holds at c=0.00025: {report.holds}; "
        f"max admissible c = {report.max_admissible_c:.6f}",
    )


def test_criterion_10_kernel_constants():
    k0 = float(EPANECHNIKOV.density(0.0))
    k0_ok = k0 == 3.0 / (4.0 * math.sqrt(5.0))
    numeric, _ = integrate.quad(
        lambda u: float(EPANECHNIKOV.density(u)) ** 2,
        -EPANECHNIKOV.support_radius,
        EPANECHNIKOV.support_radius,
        epsabs=1e-12,
    )
    l2_ok = abs(EPANECHNIKOV.l2_constant - numeric) < 1e-5
    z = -float(special.ndtri(0.025))
    z_ok = abs(z - 1.959964) < 1e-6
    _report(
        "10 kernel and quantile constants",
        k0_ok and l2_ok and z_ok,
        f"k(0) = {k0:.9f}; L2 = {EPANECHNIKOV.l2_constant:.9f} vs quad {numeric:.9f}; "
        f"z(0.025) = {z:.6f}",
    )


def test_criterion_11_stochastic_order():
    cases = [
        (APP1["baseline"], APP1["c"]),
        (HAZARDS["polynomial_c1"], 1.0),
        (HAZARDS["polynomial_c2"], 2.0),
        (HAZARDS["exponential_growth"], 1.0),
        (HAZARDS["soft_step"], 1.0),
        (APP2["baseline"], APP2["c"]),
    ]
    checked = 0
    ok = True
    for spec, c in cases:
        horizon = time_horizon(spec)
        if not spec.min_slack(c, 0.0, horizon).holds:
            continue  # the criterion applies only where dominance holds
        grid = np.linspace(horizon / 512, horizon, 512)
        checked += 1
        bound = -np.expm1(-c * grid)
        ok &= bool(np.all(spec.cdf(grid) > bound))
    _report(
        "11 stochastic-order lower bound",
        ok and checked >= 5,
        f"F(t) > 1 - exp(-c t) on all grids for {checked} dominated baselines",
    )


def test_criterion_12_path_law_agreement():
    model = model_fig3()
    t = 1.0
    n = 100_000
    w = sample_w(model.noise, t, n, seed=777)
    x = np.sort(-np.expm1(-(model.hazard.cumulative(t) + w)))

    band = model.band(t)
    xs = np.linspace(band.a, band.b, 32_769)[1:-1]
    dens = model.density(xs, t)
    atom = model.atom_prob(t)
    cdf_grid = atom + np.concatenate([[0.0], integrate.cumulative_trapezoid(dens, xs)])
    # anchor the dense grid to the exact Poisson-Beta CDF before using it
    anchors = np.linspace(band.a + 0.1 * band.width, band.b - 0.1 * band.width, 5)
    anchor_gap = float(np.max(np.abs(np.interp(anchors, xs, cdf_grid) - model.cdf(anchors, t))))
    assert anchor_gap < 1e-6

    cdf_at = np.where(
        x <= band.a, atom, np.where(x >= band.b, 1.0, np.interp(x, xs, cdf_grid))
    )
    left = np.where(
        x <= band.a, 0.0, np.where(x >= band.b, 1.0 - atom, cdf_at)
    )
    i = np.arange(1, n + 1)
    distance = max(float(np.max(i / n - cdf_at)), float(np.max(left - (i - 1) / n)))
    critical = ks_critical(n, alpha=0.01)
    _report(
        "12 sampled paths vs closed-form law",
        distance < critical,
        f"KS distance = {distance:.5f} < {critical:.5f} (1% level, n = 1e5)",
    )
