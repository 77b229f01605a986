"""Every record and every checked type is read-only once built."""

import numpy as np
import pytest

from telhaz.datasets import builtin
from telhaz.estimation import EPANECHNIKOV, BandConfig, Sample, confidence_band, defensibility_test
from telhaz.hazard import ConstantHazard, CustomHazard, PiecewiseLinearHazard, PolynomialHazard
from telhaz.perturbed import PerturbedModel
from telhaz.presets import APP1, model_fig3
from telhaz.telegraph import TelegraphParams


def _app1_report():
    config = BandConfig(h=APP1["h"], alpha=APP1["alpha"])
    return defensibility_test(builtin(APP1["dataset"]).sample, config, APP1["baseline"], APP1["c"])


# (object, one of its fields); Kernel has none, so a class attribute stands in
INSTANCES = {
    "SupportBand": (lambda: model_fig3().band(0.5), "a"),
    "Slack": (lambda: model_fig3().slack, "value"),
    "ConfidenceBand": (lambda: _app1_report().band, "rate"),
    "DefensibilityReport": (lambda: _app1_report(), "holds"),
    "NamedDataset": (lambda: builtin("melanoma_46"), "sample"),
    "TelegraphParams": (lambda: TelegraphParams(c=1.0, lam=1.0), "c"),
    "ConstantHazard": (lambda: ConstantHazard(1.0), "rate0"),
    "PolynomialHazard": (lambda: PolynomialHazard(15.0, 0.001, 1.0), "alpha"),
    "PiecewiseLinearHazard": (lambda: PiecewiseLinearHazard(((0.0, 0.0, 1.0),)), "segments"),
    "CustomHazard": (lambda: CustomHazard(np.exp, np.expm1), "support_end"),
    # turning points given as an array are kept as a tuple of floats
    "CustomHazard-array-points": (
        lambda: CustomHazard(np.exp, np.expm1, turning_points=np.array([1.0, 2.0])),
        "turning_points",
    ),
    "PerturbedModel": (lambda: model_fig3(), "noise"),
    "Sample": (lambda: Sample([1.0, 2.0, 3.0]), "values"),
    "BandConfig": (lambda: BandConfig(h=6.0, alpha=0.025), "h"),
    "Kernel": (lambda: EPANECHNIKOV, "l2_constant"),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_assignment_refused(name):
    make, field = INSTANCES[name]
    obj = make()
    assert type(obj).__name__ == name.partition("-")[0]
    before = getattr(obj, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, attr, 1.0)
    assert getattr(obj, field) is before


# records of result arrays, which neither hash nor compare to one truth value
ARRAY_RECORDS = {"ConfidenceBand", "DefensibilityReport"}


@pytest.mark.parametrize("name", sorted(set(INSTANCES) - ARRAY_RECORDS))
def test_hashes_and_equals_itself(name):
    obj = INSTANCES[name][0]()
    assert hash(obj) == hash(obj)
    assert obj == obj


def test_array_turning_points_compare_by_value():
    def build():
        return CustomHazard(np.exp, np.expm1, turning_points=np.array([1.0, 2.0]))

    assert build().turning_points == (1.0, 2.0)
    assert build() == build() and hash(build()) == hash(build())
