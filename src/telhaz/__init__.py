"""Telegraph-noise-perturbed hazard rate models.

Exact simulation and closed-form laws for the integrated two-state noise,
the induced random distribution-function process, and a kernel-band
defensibility test for lifetime data.
"""

from .datasets import NamedDataset, builtin, builtin_names, load, save
from .estimation import (
    EPANECHNIKOV,
    BandConfig,
    ConfidenceBand,
    DefensibilityReport,
    Kernel,
    Sample,
    UpperTailError,
    confidence_band,
    defensibility_test,
    hazard_estimate,
    kde,
)
from .hazard import (
    ConstantHazard,
    CustomHazard,
    HazardSpec,
    PiecewiseLinearHazard,
    PolynomialHazard,
    load_hazard_config,
    parse_hazard_config,
    time_horizon,
)
from .perturbed import PerturbedModel, SupportBand
from .telegraph import (
    TelegraphParams,
    mgf,
    sample_path,
    sample_w,
    scaled_mgf,
    w_atom_prob,
    w_cdf,
    w_density,
    w_mean_var,
)

__version__ = "0.1.0"

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
    "sample_path",
    "sample_w",
    "save",
    "scaled_mgf",
    "time_horizon",
    "w_atom_prob",
    "w_cdf",
    "w_density",
    "w_mean_var",
]
