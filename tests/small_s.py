"""The small-separation fit that criterion 03 and its frozen literals check."""

import numpy as np

from carsfisher import (EmitterScene, PlaneWaveExcitation, fi_direct, fi_spade,
                        image_amplitudes, qfi_separation)


def small_s_coefficients(ktilde: float = 0.0,
                         modes: int = 30) -> tuple[float, float, float]:
    """Leading quadratic coefficients of DI, QFI, and SPADE at small s for
    plane-wave excitation.

    Fits F_normalized ~ c s^2/2 over s in [0.01, 0.05] by least squares and
    returns (c_di, c_qfi, c_spade).
    """
    s_pts = np.linspace(0.01, 0.05, 9)
    curve = image_amplitudes(PlaneWaveExcitation(ktilde=ktilde), EmitterScene(s=s_pts))
    basis_fn = s_pts**2 / 2.0
    denom = float(basis_fn @ basis_fn)
    return tuple(float(report.normalized_value @ basis_fn) / denom for report in (
        fi_direct(curve), qfi_separation(curve), fi_spade(curve, modes)))
