"""Named parameter sets behind the shipped figures and case studies.

Each preset pins the exact published parameters so that the CLI's
``reproduce`` subcommand and the acceptance tests agree on a single source
of truth.
"""

from __future__ import annotations

import math

import numpy as np

from .hazard import (
    ConstantHazard,
    CustomHazard,
    HazardSpec,
    PiecewiseLinearHazard,
    PolynomialHazard,
)
from .perturbed import PerturbedModel
from .telegraph import TelegraphParams


def _soft_step_hazard() -> CustomHazard:
    # r(t) = 1 + 3 (1 - e^-t) / (e^t + e^-t); R has the closed form below
    # (substitute u = e^-t and integrate 3(u-1)/(1+u^2) du).
    def rate(t):
        return 1.0 + 3.0 * (1.0 - np.exp(-t)) / (np.exp(t) + np.exp(-t))

    def cumulative(t):
        u = np.exp(-t)
        return t + 3.0 * (
            0.5 * np.log1p(u * u) - 0.5 * math.log(2.0) + math.pi / 4.0 - np.arctan(u)
        )

    # r' has the sign of 1 - sinh t: r rises from 1 to its peak at asinh(1), then falls back to 1
    return CustomHazard(rate_fn=rate, cumulative_fn=cumulative, turning_points=(math.asinh(1.0),))


# Application baselines ------------------------------------------------------

APP1_BASELINE: HazardSpec = ConstantHazard(0.0125)

APP2_BASELINE: HazardSpec = PiecewiseLinearHazard(
    segments=(
        (0.0, 3.5e-6, 0.0),
        (650.0, -4.07143e-6, 0.00492143),
        (1000.0, 8e-6, -0.00715),
    )
)

HAZARDS: dict[str, HazardSpec] = {
    "polynomial_c1": PolynomialHazard(alpha=15.0, beta=0.001, c_ref=1.0),
    "polynomial_c2": PolynomialHazard(alpha=15.0, beta=0.001, c_ref=2.0),
    # r(t) = 1 + e^t, R(t) = t + e^t - 1
    "exponential_growth": CustomHazard(lambda t: 1.0 + np.exp(t), lambda t: t + np.expm1(t)),
    "soft_step": _soft_step_hazard(),
    "app1_constant": APP1_BASELINE,
    "app2_piecewise": APP2_BASELINE,
}


def model_fig1() -> PerturbedModel:
    """Two-path simulation setup: c = 2, lam = 15, quartic-cumulative hazard."""
    return PerturbedModel(HAZARDS["polynomial_c2"], TelegraphParams(c=2.0, lam=15.0))


def model_fig2(case: str) -> PerturbedModel:
    """Band-width showcases: (a) bimodal, (b) vanishing, (c) positive limit."""
    if case == "a":
        return PerturbedModel(HAZARDS["polynomial_c1"], TelegraphParams(c=1.0, lam=15.0))
    if case == "b":
        return PerturbedModel(HAZARDS["exponential_growth"], TelegraphParams(c=1.0, lam=1.0))
    if case == "c":
        return PerturbedModel(HAZARDS["soft_step"], TelegraphParams(c=1.0, lam=1.0))
    raise ValueError(f"unknown band case {case!r}; expected 'a', 'b' or 'c'")


def model_fig3() -> PerturbedModel:
    """Density showcase: same model as fig2 case (a)."""
    return model_fig2("a")


FIG3_TIMES: tuple[float, ...] = (0.25, 0.5, 1.0)

FIG1_HORIZON = 1.0
FIG2_HORIZONS: dict[str, float] = {"a": 2.5, "b": 5.0, "c": 8.0}
FIG4_HORIZON = 2.0

APP1 = {
    "dataset": "melanoma_46",
    "baseline": APP1_BASELINE,
    "h": 6.0,
    "alpha": 0.025,
    "c": 0.0004,
}

APP2 = {
    "dataset": "service_86",
    "baseline": APP2_BASELINE,
    "h": 75.0,
    "alpha": 0.025,
    "c": 0.00025,
}
