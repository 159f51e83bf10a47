"""Photon-information limits and measurement simulation for faint-companion
detection and localization with a circular-aperture telescope.

Subpackages split by concern: analytic field tools (optics, specfun),
quantum information limits (quantum_bounds), sorted-mode machinery
(modebasis), coronagraph models (coronagraph), per-measurement classical
information (classical_info), Monte-Carlo localization (estimation), and
the command-line surface (cli).
"""

__version__ = "0.1.0"

from .classical_info import (
    brightness_leakage_ratio,
    cce_coronagraph,
    cce_spade_binary,
    cfim_direct_imaging,
    cfim_spade,
)
from .coronagraph import (
    CoronagraphOperator,
    extract_operator,
    output_state_image,
    perfect_plan,
    piaacmc_plan,
    vortex_plan,
)
from .estimation import (
    LocalizationEstimate,
    MeasurementRecord,
    fit_uncertainty_patch,
    mle_localize,
    run_trials,
    sample_measurement,
)
from .modebasis import FourierZernikeBasis, all_mode_probabilities, mode_field_stack
from .optics import (
    AIRY_SIGMA,
    GridSpec,
    Scene,
    TelescopePrescription,
    load_prescription,
)
from .quantum_bounds import (
    FisherMatrix,
    qce,
    qfim_high_contrast,
    qfim_polar,
    sigma_loc,
)

__all__ = [
    "AIRY_SIGMA",
    "CoronagraphOperator",
    "FisherMatrix",
    "FourierZernikeBasis",
    "GridSpec",
    "LocalizationEstimate",
    "MeasurementRecord",
    "Scene",
    "TelescopePrescription",
    "__version__",
    "all_mode_probabilities",
    "brightness_leakage_ratio",
    "cce_coronagraph",
    "cce_spade_binary",
    "cfim_direct_imaging",
    "cfim_spade",
    "extract_operator",
    "fit_uncertainty_patch",
    "load_prescription",
    "mle_localize",
    "mode_field_stack",
    "output_state_image",
    "perfect_plan",
    "piaacmc_plan",
    "qce",
    "qfim_high_contrast",
    "qfim_polar",
    "run_trials",
    "sample_measurement",
    "sigma_loc",
    "vortex_plan",
]
