"""Spectral response of the anti-Stokes signal for pulsed excitation.

The emitted spectral mode is the two-pump/one-Stokes convolution filtered
by a vibrational resonance:

    g Phi(w) = weight * a_pu^2 * a_St
               * Int dw-/2pi  psi_pu(w - w-) K(w-) / (w- - w_vib + i gamma_vib),

    K(w-) = Int dw'/2pi  psi_pu(w' + w-) psi_St(w'),

with Gaussian pulse profiles psi normalized to Int |psi|^2 dw/2pi = 1 (the
profiles are real, so conjugation is a no-op; the coherent amplitudes are
carried separately).  Both integrals have closed forms.  K is a Gaussian in
w- of variance 2V, V = b_pu^2 + b_St^2, so psi_pu(w - w-) K(w-) is one
Gaussian in w- with

    mean    mu(w)  = (V (w - c_pu) + b_pu^2 (c_pu - c_St)) / (V + b_pu^2),
    variance sigma^2 = 2 b_pu^2 V / (V + b_pu^2),

times the envelope

    P(w) = (2 pi)^{1/4} b_pu^{-1/2} sqrt(2 b_pu b_St / V)
           * exp(-(w - (2 c_pu - c_St))^2 / (4 (2 b_pu^2 + b_St^2))).

The outer integral of that Gaussian against the Lorentzian is a Voigt-type
integral, so

    g Phi(w) = weight a_pu^2 a_St * P(w) * (-i/2) * conj(w(zeta)),
    zeta     = (w_vib - mu(w) + i gamma_vib) / (sigma sqrt 2),

with the Faddeeva function w(z) = exp(-z^2) erfc(-iz).  Since gamma_vib > 0,
zeta lies in the upper half plane, where ``_faddeeva`` evaluates Weideman's
rational approximation with 40 terms (J. A. C. Weideman, SIAM J. Numer.
Anal. 31, 1497 (1994); see also G. P. M. Poppe and C. M. J. Wijers, ACM
TOMS 16, 38 (1990)).  Its relative error is below ``_FADDEEVA_REL_BOUND``
there, so g Phi carries the same relative bound up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .psf_modes import _require_finite

_GRID_POINTS = 4096
_GRID_HALFWIDTH_BW = 12.0   # grid span, units of the combined bandwidth

# relative error bound of _faddeeva for Im z >= 0 (measured below 2.5e-14
# on random z with Im z in [1e-6, 1e8] and |Re z| up to 1e8)
_FADDEEVA_REL_BOUND = 5e-14


def _weideman_table(n: int) -> tuple[float, np.ndarray]:
    """Scale L and the n polynomial coefficients (highest power first) of
    Weideman's n-term rational approximation, from one FFT of
    exp(-t^2) (L^2 + t^2) sampled at t = L tan(theta/2)."""
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(np.arange(-m + 1, m) * math.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    coeffs = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return scale, coeffs[n:0:-1]


_W_SCALE, _W_COEFFS = _weideman_table(40)


def _faddeeva(z):
    """w(z) = exp(-z^2) erfc(-iz) for Im z >= 0, vectorized over z."""
    iz = 1j * np.asarray(z, dtype=complex)
    d = _W_SCALE - iz
    poly = np.polyval(_W_COEFFS, (_W_SCALE + iz) / d)
    return 2.0 * poly / (d * d) + 1.0 / (math.sqrt(math.pi) * d)


@dataclass(frozen=True)
class RamanResonance:
    """Single vibrational resonance: frequency, linewidth, and the
    polarizability/field-strength prefactor folded into one weight."""

    omega_vib: float
    gamma_vib: float
    polarizability_weight: float = 1.0

    def __post_init__(self):
        _require_finite("RamanResonance", omega_vib=self.omega_vib,
                        gamma_vib=self.gamma_vib,
                        polarizability_weight=self.polarizability_weight)
        if not self.gamma_vib > 0.0:
            raise ValueError("resonance linewidth must be positive")
        if not self.polarizability_weight > 0.0:
            raise ValueError("polarizability weight must be positive")


@dataclass(frozen=True)
class PulseSpectrum:
    """Gaussian pulse spectrum with coherent amplitude.

    profile(w) = (2 pi)^{1/4} bandwidth^{-1/2} exp(-(w - center)^2 /
    (4 bandwidth^2)), normalized so Int |profile|^2 dw/2pi = 1.
    """

    center: float
    bandwidth: float
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        _require_finite("PulseSpectrum", center=self.center,
                        bandwidth=self.bandwidth, amplitude=self.amplitude)
        if not self.bandwidth > 0.0:
            raise ValueError("bandwidth must be positive")

    def profile(self, omega):
        arg = (np.asarray(omega, dtype=float) - self.center) / self.bandwidth
        return ((2.0 * math.pi) ** 0.25 / math.sqrt(self.bandwidth)
                * np.exp(-0.25 * arg * arg))


def phi_grid(pump: PulseSpectrum, stokes: PulseSpectrum) -> np.ndarray:
    """The output-frequency grid on which ``normalize_phi`` normalizes Phi."""
    center = 2.0 * pump.center - stokes.center
    # two pump factors and one Stokes factor convolve in the output frequency
    span = _GRID_HALFWIDTH_BW * math.sqrt(2.0 * pump.bandwidth**2
                                          + stokes.bandwidth**2)
    return np.linspace(center - span, center + span, _GRID_POINTS)


def spectral_weight(res: RamanResonance, pump: PulseSpectrum,
                    stokes: PulseSpectrum, omega):
    """g Phi(omega) in closed form (module docstring), vectorized over
    omega: a scalar gives a complex, an array an array of its shape.  A
    scalar runs as a one-element array, so it matches the array call bit
    for bit (numpy's scalar complex product rounds differently)."""
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    b_pu, b_st = pump.bandwidth, stokes.bandwidth
    var = b_pu**2 + b_st**2
    total = var + b_pu**2                   # = 2 b_pu^2 + b_St^2
    mean = (var * (om - pump.center)
            + b_pu**2 * (pump.center - stokes.center)) / total
    sigma = math.sqrt(2.0 * b_pu**2 * var / total)
    zeta = (res.omega_vib - mean + 1j * res.gamma_vib) / (sigma * math.sqrt(2.0))
    gap = om - (2.0 * pump.center - stokes.center)
    envelope = ((2.0 * math.pi) ** 0.25 / math.sqrt(b_pu)
                * math.sqrt(2.0 * b_pu * b_st / var)
                * np.exp(-gap * gap / (4.0 * total)))
    pref = res.polarizability_weight * pump.amplitude**2 * stokes.amplitude
    value = pref * envelope * -0.5j * np.conj(_faddeeva(zeta))
    return complex(value[0]) if np.ndim(omega) == 0 else value


def _sampled_weight(res: RamanResonance, pump: PulseSpectrum,
                    stokes: PulseSpectrum):
    """(grid, g Phi on it, g) on the ``phi_grid`` of the pulses, with
    g = sqrt(Int |g Phi|^2 dw/2pi); the sampled weight divided by g is Phi
    there.  Raises ValueError on zero-signal input (g underflows)."""
    grid = phi_grid(pump, stokes)
    weight = spectral_weight(res, pump, stokes, grid)
    power = np.abs(weight) ** 2
    dw = grid[1] - grid[0]
    # trapezoid on the uniform grid (spectrally accurate for these tails)
    norm_sq = dw * (power.sum() - 0.5 * (power[0] + power[-1])) / (2.0 * math.pi)
    g = math.sqrt(norm_sq)
    if g < 1e-300:
        raise ValueError("zero-signal input: spectral weight underflows")
    return grid, weight, g


def normalize_phi(res: RamanResonance, pump: PulseSpectrum,
                  stokes: PulseSpectrum):
    """Extract (g, Phi): g = sqrt(Int |g Phi|^2 dw/2pi), Phi normalized so
    Int |Phi|^2 dw/2pi = 1.

    Raises ValueError on zero-signal input (g underflows).
    """
    _, _, g = _sampled_weight(res, pump, stokes)

    def phi(omega):
        return spectral_weight(res, pump, stokes, omega) / g

    return g, phi
