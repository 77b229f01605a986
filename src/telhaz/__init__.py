"""Telegraph-noise-perturbed hazard rate models.

Exact simulation and closed-form laws for the integrated two-state noise,
the induced random distribution-function process, and a kernel-band
defensibility test for lifetime data.
"""

import importlib

from .hazard import (
    ConstantHazard,
    CustomHazard,
    HazardSpec,
    PiecewiseLinearHazard,
    PolynomialHazard,
    load_hazard_config,
    parse_hazard_config,
)
from .perturbed import PerturbedModel, SupportBand
from .telegraph import (
    TelegraphParams,
    mgf,
    sample_paths,
    sample_w,
    scaled_mgf,
    w_atom_prob,
    w_cdf,
    w_density,
    w_mean_var,
)

__version__ = "0.1.0"

# The estimation names (estimation imports scipy.special) and the data sets
# resolve on first access (PEP 562), so `import telhaz` loads neither module.
_LAZY = {
    **dict.fromkeys(("NamedDataset", "builtin", "builtin_names", "load", "save"), "datasets"),
    **dict.fromkeys(
        ("EPANECHNIKOV", "BandConfig", "ConfidenceBand", "DefensibilityReport", "Kernel", "Sample",
         "UpperTailError", "confidence_band", "defensibility_test", "hazard_estimate", "kde"),
        "estimation",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "BandConfig",
    "ConfidenceBand",
    "ConstantHazard",
    "CustomHazard",
    "DefensibilityReport",
    "EPANECHNIKOV",
    "HazardSpec",
    "Kernel",
    "NamedDataset",
    "PerturbedModel",
    "PiecewiseLinearHazard",
    "PolynomialHazard",
    "Sample",
    "SupportBand",
    "TelegraphParams",
    "UpperTailError",
    "builtin",
    "builtin_names",
    "confidence_band",
    "defensibility_test",
    "hazard_estimate",
    "kde",
    "load",
    "load_hazard_config",
    "mgf",
    "parse_hazard_config",
    "sample_paths",
    "sample_w",
    "save",
    "scaled_mgf",
    "w_atom_prob",
    "w_cdf",
    "w_density",
    "w_mean_var",
]
