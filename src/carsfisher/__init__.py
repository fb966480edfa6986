"""Quantum and classical Fisher-information limits for two-emitter
separation estimation in coherent Raman (CARS) imaging.

The public surface is re-exported here; the CLI lives in
:mod:`carsfisher.cli` and is reachable through the ``carsfisher``
console script.
"""

from .excitation import (
    EmitterScene,
    ImageAmplitudes,
    PlaneWaveExcitation,
    VortexExcitation,
    amplitude_derivative_check,
    emission_amplitude,
    image_amplitudes,
)
from .fisher import (
    FisherReport,
    QfiMatrix,
    fi_direct,
    fi_direct_many,
    fi_spade,
    fi_spade_many,
    intensity_profile,
    mean_photons_spade,
    optimize_waist,
    qfi_matrix,
    qfi_plane_closed,
    qfi_separation,
    qfi_vortex_closed,
    small_s_coefficients,
    spade_collinear_closed,
    vortex_closed_variants,
)
from .montecarlo import (
    BinnedImager,
    EstimationReport,
    ml_estimate,
    run_experiment,
    sample_counts,
    spade_count_model,
)
from .numerics import (
    ConvergenceError,
    golden_section_max,
    golden_section_max_many,
    integrate_1d,
    integrate_1d_many,
)
from .psf_modes import (
    GaussianPsf,
    HermiteGaussBasis,
    PsfGeometry,
    centroid_mode_coupling,
    gamma_k,
    hg_mode_value,
    overlap_beta,
    overlap_delta,
    psf_geometry,
    psf_value,
)
from .spectral import PulseSpectrum, RamanResonance, normalize_phi, spectral_weight

__version__ = "0.1.0"

__all__ = [
    "BinnedImager",
    "ConvergenceError",
    "EmitterScene",
    "EstimationReport",
    "FisherReport",
    "GaussianPsf",
    "HermiteGaussBasis",
    "ImageAmplitudes",
    "PlaneWaveExcitation",
    "PsfGeometry",
    "PulseSpectrum",
    "QfiMatrix",
    "RamanResonance",
    "VortexExcitation",
    "amplitude_derivative_check",
    "centroid_mode_coupling",
    "emission_amplitude",
    "fi_direct",
    "fi_direct_many",
    "fi_spade",
    "fi_spade_many",
    "gamma_k",
    "golden_section_max",
    "golden_section_max_many",
    "hg_mode_value",
    "image_amplitudes",
    "integrate_1d",
    "integrate_1d_many",
    "intensity_profile",
    "mean_photons_spade",
    "ml_estimate",
    "normalize_phi",
    "optimize_waist",
    "overlap_beta",
    "overlap_delta",
    "psf_geometry",
    "psf_value",
    "qfi_matrix",
    "qfi_plane_closed",
    "qfi_separation",
    "qfi_vortex_closed",
    "run_experiment",
    "sample_counts",
    "small_s_coefficients",
    "spade_collinear_closed",
    "spade_count_model",
    "spectral_weight",
    "vortex_closed_variants",
    "__version__",
]
