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
    image_amplitudes,
)
from .fisher import (
    FisherReport,
    QfiMatrix,
    fi_direct,
    fi_spade,
    optimize_waist,
    qfi_matrix,
    qfi_plane_closed,
    qfi_separation,
    qfi_vortex_closed,
    vortex_closed_variants,
)
from .montecarlo import (
    BinnedImager,
    EstimationReport,
    run_experiment,
    sample_counts,
    spade_count_model,
)
from .numerics import ConvergenceError, integrate_1d_many
from .spectral import PulseSpectrum, RamanResonance, normalize_phi, spectral_weight

__version__ = "0.1.0"

__all__ = [
    "BinnedImager",
    "ConvergenceError",
    "EmitterScene",
    "EstimationReport",
    "FisherReport",
    "ImageAmplitudes",
    "PlaneWaveExcitation",
    "PulseSpectrum",
    "QfiMatrix",
    "RamanResonance",
    "VortexExcitation",
    "fi_direct",
    "fi_spade",
    "image_amplitudes",
    "integrate_1d_many",
    "normalize_phi",
    "optimize_waist",
    "qfi_matrix",
    "qfi_plane_closed",
    "qfi_separation",
    "qfi_vortex_closed",
    "run_experiment",
    "sample_counts",
    "spade_count_model",
    "spectral_weight",
    "vortex_closed_variants",
    "__version__",
]
